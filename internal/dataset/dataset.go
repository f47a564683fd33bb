// Package dataset generates the synthetic CIFAR-10-like image
// classification workload used in place of CIFAR-10 (which cannot be
// shipped with the repository). Each of the 10 classes is a procedural
// pattern — a class-specific mixture of oriented sinusoidal gratings,
// radial gradients, and color tints — perturbed per sample with random
// phase, amplitude, and pixel noise. The classes are linearly
// well-separated enough for a small CNN to reach high accuracy within a
// few epochs of CPU training, while still requiring a real forward pass
// to classify: exactly the property the fault-injection methodology
// needs (a fixed test set on which the golden network behaves
// deterministically and faults can change top-1 outcomes).
package dataset

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"

	"cnnsfi/internal/tensor"
)

// Sample is one labeled image in CHW layout.
type Sample struct {
	// Image is a Channels×Size×Size tensor with values roughly in
	// [-1, 1] (normalized like standard CIFAR preprocessing).
	Image *tensor.Tensor
	// Label is the ground-truth class in [0, Classes).
	Label int
}

// Dataset is an ordered collection of samples.
type Dataset struct {
	Samples []Sample
	Classes int
}

// Config parameterizes the synthetic generator.
type Config struct {
	// Classes is the number of classes (default 10).
	Classes int
	// Size is the square image side (default 32).
	Size int
	// Channels is the number of image channels (default 3).
	Channels int
	// N is the number of samples to generate.
	N int
	// Seed makes generation deterministic.
	Seed int64
	// Noise is the per-pixel Gaussian noise standard deviation
	// (default 0.15).
	Noise float64
}

func (c Config) withDefaults() Config {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Size == 0 {
		c.Size = 32
	}
	if c.Channels == 0 {
		c.Channels = 3
	}
	if c.Noise == 0 {
		c.Noise = 0.15
	}
	return c
}

// Synthetic generates a dataset with a balanced round-robin class
// assignment. Generation is deterministic in Config.Seed.
func Synthetic(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		panic(fmt.Sprintf("dataset: N must be positive, got %d", cfg.N))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Classes: cfg.Classes, Samples: make([]Sample, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		label := i % cfg.Classes
		d.Samples[i] = Sample{Image: renderClass(rng, cfg, label), Label: label}
	}
	return d
}

// renderClass draws one image of the given class. Class identity is
// carried by grating frequency, orientation, radial weight, and channel
// tint; sample identity by random phase and noise.
func renderClass(rng *rand.Rand, cfg Config, label int) *tensor.Tensor {
	img := tensor.New(cfg.Channels, cfg.Size, cfg.Size)

	// Class-determined parameters.
	freq := 1.0 + float64(label%5)                           // cycles across the image
	theta := float64(label) * math.Pi / float64(cfg.Classes) // orientation
	radial := float64(label%3) - 1                           // -1, 0, +1 radial mix
	cosT, sinT := math.Cos(theta), math.Sin(theta)

	// Sample-random parameters.
	phase := float64(2 * math.Pi * rng.Float64())
	amp := 0.7 + float64(rng.Float64()*0.3)

	cx := float64(float64(cfg.Size-1) / 2)
	for c := 0; c < cfg.Channels; c++ {
		// Class tint: each channel gets a distinct weight derived from
		// the label so color alone is informative too.
		tint := 0.5 + float64(0.5*math.Cos(2*math.Pi*float64(label*(c+1))/float64(cfg.Classes)))
		for y := 0; y < cfg.Size; y++ {
			for x := 0; x < cfg.Size; x++ {
				u := (float64(x) - cx) / cx
				v := (float64(y) - cx) / cx
				proj := float64(u*cosT) + float64(v*sinT)
				g := math.Sin(float64(freq*math.Pi*proj) + phase)
				r := math.Sqrt(float64(u*u)+float64(v*v)) * radial
				val := float64(amp*(float64(0.6*g)+float64(0.4*r))*tint) + float64(rng.NormFloat64()*cfg.Noise)
				img.Set3(c, y, x, float32(clamp(val, -1, 1)))
			}
		}
	}
	return img
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Split partitions the dataset into the first nTrain samples and the
// rest. It panics if nTrain is out of range.
func (d *Dataset) Split(nTrain int) (train, test *Dataset) {
	if nTrain < 0 || nTrain > len(d.Samples) {
		panic(fmt.Sprintf("dataset: cannot split %d of %d", nTrain, len(d.Samples)))
	}
	return &Dataset{Samples: d.Samples[:nTrain], Classes: d.Classes},
		&Dataset{Samples: d.Samples[nTrain:], Classes: d.Classes}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Shuffle permutes the samples in place, deterministically in seed.
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// ClassCounts returns how many samples carry each label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}

// ToImage converts a sample's CHW tensor (values in [-1, 1]) into an
// 8-bit RGBA image for visual inspection. Single-channel samples render
// as grayscale; extra channels beyond the third are ignored.
func (s Sample) ToImage() *image.RGBA {
	h, w := s.Image.Dim(1), s.Image.Dim(2)
	c := s.Image.Dim(0)
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	to8 := func(v float32) uint8 {
		x := (float64(v) + 1) / 2 * 255
		if x < 0 {
			x = 0
		}
		if x > 255 {
			x = 255
		}
		return uint8(x)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := to8(s.Image.At3(0, y, x))
			g, b := r, r
			if c >= 3 {
				g = to8(s.Image.At3(1, y, x))
				b = to8(s.Image.At3(2, y, x))
			}
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img
}

// WritePNG encodes the sample as a PNG.
func (s Sample) WritePNG(w io.Writer) error {
	return png.Encode(w, s.ToImage())
}
