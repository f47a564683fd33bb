// Package train is a minimal backpropagation training substrate for
// sequential CNNs built from the nn layers (convolution, frozen-affine
// batch normalization, ReLU/ReLU6, max pooling, global average pooling,
// flatten, linear). It exists so that the inference-based validation
// campaigns run on genuinely *trained* weights — the paper's setting —
// rather than on synthetic initializations.
//
// Scope notes: only strictly sequential graphs are supported (SmallCNN
// is sequential; ResNet-20 and MobileNetV2 use the distribution-
// calibrated synthetic weights as documented in DESIGN.md), and batch
// normalization is trained in "frozen statistics" mode: the running
// mean/variance stay fixed while γ and β learn, which is exact for the
// affine transform actually executed at inference time.
package train

import (
	"fmt"
	"math"
	"math/rand"

	"cnnsfi/internal/dataset"
	"cnnsfi/internal/nn"
	"cnnsfi/internal/tensor"
)

// Trainer runs SGD-with-momentum on a sequential network.
type Trainer struct {
	// Net is the network being trained (mutated in place).
	Net *nn.Network
	// LR is the learning rate.
	LR float64
	// Momentum is the SGD momentum coefficient.
	Momentum float64
	// WeightDecay is the L2 penalty coefficient applied to conv/linear
	// weights.
	WeightDecay float64
	// LRDecay multiplies LR after every epoch (1 = constant; 0 is
	// treated as 1). Step decay stabilizes the tail of training on the
	// synthetic task.
	LRDecay float64

	velocity map[string][]float32 // per-parameter-buffer momentum state
}

// New validates that the network is a supported sequential graph and
// returns a trainer.
func New(net *nn.Network, lr, momentum float64) (*Trainer, error) {
	for i, node := range net.Nodes {
		if len(node.Inputs) != 1 {
			return nil, fmt.Errorf("train: node %d (%s) has %d inputs; only sequential graphs are supported",
				i, node.Layer.Name(), len(node.Inputs))
		}
		want := i - 1
		if node.Inputs[0] != want {
			return nil, fmt.Errorf("train: node %d (%s) does not feed from node %d", i, node.Layer.Name(), want)
		}
		switch node.Layer.(type) {
		case *nn.Conv2D, *nn.Linear, *nn.BatchNorm2D, *nn.ReLU, *nn.ReLU6,
			*nn.MaxPool2D, *nn.GlobalAvgPool, *nn.Flatten:
		default:
			return nil, fmt.Errorf("train: unsupported layer type %T (%s)", node.Layer, node.Layer.Name())
		}
	}
	return &Trainer{Net: net, LR: lr, Momentum: momentum, velocity: make(map[string][]float32)}, nil
}

// TrainSample performs one forward/backward/update step on a single
// labeled image and returns the cross-entropy loss before the update.
func (t *Trainer) TrainSample(img *tensor.Tensor, label int) float64 {
	acts := t.Net.Exec(img)
	out := acts[len(acts)-1]

	// Softmax cross-entropy gradient: dL/dscore = softmax − onehot.
	probs := nn.Softmax(out)
	loss := -math.Log(math.Max(float64(probs.Data[label]), 1e-12))
	grad := tensor.New(out.Shape...)
	for i := range grad.Data {
		grad.Data[i] = probs.Data[i]
	}
	grad.Data[label] -= 1

	// Backward pass through the sequence.
	for i := len(t.Net.Nodes) - 1; i >= 0; i-- {
		var in *tensor.Tensor
		if i == 0 {
			in = img
		} else {
			in = acts[i-1]
		}
		grad = t.backward(i, t.Net.Nodes[i].Layer, in, acts[i], grad)
	}
	return loss
}

// Epoch trains one pass over the dataset in a shuffled order
// (deterministic in shuffleSeed) and returns the mean loss.
func (t *Trainer) Epoch(ds *dataset.Dataset, shuffleSeed int64) float64 {
	order := rand.New(rand.NewSource(shuffleSeed)).Perm(ds.Len())
	var total float64
	for _, i := range order {
		s := ds.Samples[i]
		total += t.TrainSample(s.Image, s.Label)
	}
	return total / float64(ds.Len())
}

// Fit trains for the given number of epochs, applying LRDecay between
// epochs, and returns the per-epoch mean losses.
func (t *Trainer) Fit(ds *dataset.Dataset, epochs int) []float64 {
	losses := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		losses[e] = t.Epoch(ds, int64(e))
		if t.LRDecay > 0 && t.LRDecay != 1 {
			t.LR *= t.LRDecay
		}
	}
	return losses
}

// Accuracy returns the top-1 accuracy of the network on the dataset.
func Accuracy(net *nn.Network, ds *dataset.Dataset) float64 {
	correct := 0
	for _, s := range ds.Samples {
		if net.Predict(s.Image) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// backward dispatches the layer-specific gradient computation, applies
// the parameter update, and returns the gradient w.r.t. the layer input.
func (t *Trainer) backward(node int, layer nn.Layer, in, out, dout *tensor.Tensor) *tensor.Tensor {
	switch l := layer.(type) {
	case *nn.ReLU:
		din := tensor.New(in.Shape...)
		for i := range din.Data {
			if in.Data[i] > 0 {
				din.Data[i] = dout.Data[i]
			}
		}
		return din

	case *nn.ReLU6:
		din := tensor.New(in.Shape...)
		for i := range din.Data {
			if in.Data[i] > 0 && in.Data[i] < 6 {
				din.Data[i] = dout.Data[i]
			}
		}
		return din

	case *nn.Flatten:
		return dout.Reshape(in.Shape...)

	case *nn.GlobalAvgPool:
		c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
		din := tensor.New(in.Shape...)
		inv := 1 / float32(h*w)
		for ci := 0; ci < c; ci++ {
			g := dout.Data[ci] * inv
			plane := din.Data[ci*h*w : (ci+1)*h*w]
			for i := range plane {
				plane[i] = g
			}
		}
		return din

	case *nn.MaxPool2D:
		return maxPoolBackward(l, in, dout)

	case *nn.BatchNorm2D:
		return t.bnBackward(node, l, in, dout)

	case *nn.Linear:
		return t.linearBackward(node, l, in, dout)

	case *nn.Conv2D:
		return t.convBackward(node, l, in, dout)

	default:
		panic(fmt.Sprintf("train: no backward for %T", layer))
	}
}

func maxPoolBackward(l *nn.MaxPool2D, in, dout *tensor.Tensor) *tensor.Tensor {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh := (h-l.Kernel)/l.Stride + 1
	ow := (w-l.Kernel)/l.Stride + 1
	din := tensor.New(in.Shape...)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestY, bestX := oy*l.Stride, ox*l.Stride
				best := in.At3(ci, bestY, bestX)
				for ky := 0; ky < l.Kernel; ky++ {
					for kx := 0; kx < l.Kernel; kx++ {
						iy, ix := oy*l.Stride+ky, ox*l.Stride+kx
						if v := in.At3(ci, iy, ix); v > best {
							best, bestY, bestX = v, iy, ix
						}
					}
				}
				din.Set3(ci, bestY, bestX, din.At3(ci, bestY, bestX)+dout.At3(ci, oy, ox))
			}
		}
	}
	return din
}

func (t *Trainer) bnBackward(node int, l *nn.BatchNorm2D, in, dout *tensor.Tensor) *tensor.Tensor {
	c := in.Shape[0]
	plane := in.Len() / c
	din := tensor.New(in.Shape...)
	dgamma := make([]float32, c)
	dbeta := make([]float32, c)
	for ci := 0; ci < c; ci++ {
		inv := 1 / float32(math.Sqrt(float64(l.Var[ci]+l.Eps)))
		scale := l.Gamma[ci] * inv
		for i := ci * plane; i < (ci+1)*plane; i++ {
			xhat := (in.Data[i] - l.Mean[ci]) * inv
			dgamma[ci] += float32(dout.Data[i] * xhat)
			dbeta[ci] += dout.Data[i]
			din.Data[i] = dout.Data[i] * scale
		}
	}
	t.update(fmt.Sprintf("n%d.gamma", node), l.Gamma, dgamma, 0)
	t.update(fmt.Sprintf("n%d.beta", node), l.Beta, dbeta, 0)
	l.Refold()
	return din
}

func (t *Trainer) linearBackward(node int, l *nn.Linear, in, dout *tensor.Tensor) *tensor.Tensor {
	din := tensor.New(in.Shape...)
	dw := make([]float32, len(l.W))
	for o := 0; o < l.Out; o++ {
		g := dout.Data[o]
		row := l.W[o*l.In : (o+1)*l.In]
		dwRow := dw[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			dwRow[i] += float32(g * in.Data[i])
			din.Data[i] += float32(g * row[i])
		}
	}
	t.update(fmt.Sprintf("n%d.w", node), l.W, dw, float32(t.WeightDecay))
	if l.Bias != nil {
		t.update(fmt.Sprintf("n%d.b", node), l.Bias, dout.Data, 0)
	}
	return din
}

func (t *Trainer) convBackward(node int, c *nn.Conv2D, in, dout *tensor.Tensor) *tensor.Tensor {
	h, w := in.Shape[1], in.Shape[2]
	oh, ow := dout.Shape[1], dout.Shape[2]
	din := tensor.New(in.Shape...)
	dw := make([]float32, len(c.W))
	var dbias []float32
	if c.Bias != nil {
		dbias = make([]float32, len(c.Bias))
	}

	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	ksize := icg * c.KH * c.KW

	for oc := 0; oc < c.OutC; oc++ {
		g := oc / ocg
		wBase := oc * ksize
		doutPlane := dout.Data[oc*oh*ow : (oc+1)*oh*ow]
		if dbias != nil {
			var sum float32
			for _, v := range doutPlane {
				sum += v
			}
			dbias[oc] += sum
		}
		for icl := 0; icl < icg; icl++ {
			ic := g*icg + icl
			inPlane := in.Data[ic*h*w : (ic+1)*h*w]
			dinPlane := din.Data[ic*h*w : (ic+1)*h*w]
			wOff := wBase + icl*c.KH*c.KW
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					wv := c.W[wOff+ky*c.KW+kx]
					var dwAcc float32
					for oy := 0; oy < oh; oy++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= h {
							continue
						}
						doutRow := doutPlane[oy*ow : oy*ow+ow]
						inRow := inPlane[iy*w : iy*w+w]
						dinRow := dinPlane[iy*w : iy*w+w]
						for ox := 0; ox < ow; ox++ {
							ix := ox*c.Stride + kx - c.Pad
							if ix < 0 || ix >= w {
								continue
							}
							gv := doutRow[ox]
							dwAcc += float32(gv * inRow[ix])
							dinRow[ix] += float32(gv * wv)
						}
					}
					dw[wOff+ky*c.KW+kx] += dwAcc
				}
			}
		}
	}
	t.update(fmt.Sprintf("n%d.w", node), c.W, dw, float32(t.WeightDecay))
	if dbias != nil {
		t.update(fmt.Sprintf("n%d.b", node), c.Bias, dbias, 0)
	}
	return din
}

// update applies one SGD-with-momentum step to a parameter buffer.
func (t *Trainer) update(key string, param, grad []float32, weightDecay float32) {
	vel := t.velocity[key]
	if vel == nil {
		vel = make([]float32, len(param))
		t.velocity[key] = vel
	}
	lr := float32(t.LR)
	mom := float32(t.Momentum)
	for i := range param {
		g := grad[i] + float32(weightDecay*param[i])
		vel[i] = float32(mom*vel[i]) - float32(lr*g)
		param[i] += vel[i]
	}
}

// TrainableSmallCNN builds the SmallCNN topology with fresh He-
// initialized convolutions and identity batch normalization — a clean
// starting point for training (models.SmallCNN, in contrast, fabricates
// "already-trained-looking" statistics).
func TrainableSmallCNN(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	n := nn.NewNetwork("smallcnn-trainable")

	he := func(w []float32, fanIn int) {
		std := math.Sqrt(2 / float64(fanIn))
		for i := range w {
			w[i] = float32(rng.NormFloat64() * std)
		}
	}
	addConvBN := func(label string, inC, outC, from int) int {
		c := nn.NewConv2D(label, inC, outC, 3, 1, 1, 1)
		he(c.W, inC*9)
		id := n.Add(c, from)
		bn := nn.NewBatchNorm2D(label+"_bn", outC)
		bn.Refold()
		return n.Add(bn, id)
	}

	last := addConvBN("conv0", 3, 4, nn.InputID)
	last = n.Add(&nn.ReLU{Label: "relu0"}, last)
	last = n.Add(&nn.MaxPool2D{Label: "pool0", Kernel: 2, Stride: 2}, last)
	last = addConvBN("conv1", 4, 8, last)
	last = n.Add(&nn.ReLU{Label: "relu1"}, last)
	last = n.Add(&nn.MaxPool2D{Label: "pool1", Kernel: 2, Stride: 2}, last)
	last = addConvBN("conv2", 8, 16, last)
	last = n.Add(&nn.ReLU{Label: "relu2"}, last)
	last = n.Add(&nn.GlobalAvgPool{Label: "gap"}, last)
	fc := nn.NewLinear("fc", 16, 10)
	he(fc.W, 16)
	n.Add(fc, last)
	return n
}
