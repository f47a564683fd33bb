package nn

// UseAVX and AVXSupported expose the row-kernel switch to the external
// tests, which build whole networks from internal/models.
var (
	UseAVX       = &useAVX
	AVXSupported = avxSupported
)
