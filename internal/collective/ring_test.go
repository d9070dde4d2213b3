package collective

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// referenceAllReduce replays the serial ring's exact accumulation order in
// plain scalar code: chunk c starts from rank c's data and folds the
// remaining ranks' contributions in ring order (c+1, c+2, …). Pairwise FP
// addition is commutative bitwise, so this is the unique bit pattern every
// correct ring schedule must produce; averaging multiplies the completed sum
// by 1/n exactly as the collective does.
func referenceAllReduce(inputs []tensor.Vector, op ReduceOp) tensor.Vector {
	n := len(inputs)
	dim := len(inputs[0])
	out := tensor.New(dim)
	for c := 0; c < n; c++ {
		cs, ce, _ := tensor.ChunkBounds(dim, n, c)
		for i := cs; i < ce; i++ {
			acc := inputs[c][i]
			for j := 1; j < n; j++ {
				acc += inputs[(c+j)%n][i]
			}
			out[i] = acc
		}
	}
	if op == OpAverage {
		inv := 1 / float64(n)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// TestRingMatchesReference is the property test for the pipelined ring: for
// random vectors, every rank count, segment depth (including depths that do
// not divide the chunk evenly), and both reduce ops, the result must be
// BIT-identical to the reference accumulation on every rank.
func TestRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{0, 1, 2, 7, 64, 97, 1000, 4099}
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, dim := range dims {
			for _, segs := range []int{0, 1, 2, 3, 4} {
				for _, op := range []ReduceOp{OpSum, OpAverage} {
					inputs := make([]tensor.Vector, n)
					for r := range inputs {
						inputs[r] = tensor.New(dim)
						for j := range inputs[r] {
							// Wide magnitude spread so any reordering of the
							// accumulation would change low-order bits.
							inputs[r][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
						}
					}
					want := referenceAllReduce(inputs, op)
					got := make([]tensor.Vector, n)
					for r := range got {
						got[r] = inputs[r].Clone()
					}
					runSPMD(t, n, func(m transport.Mesh) error {
						return RingAllReduceSegmented(m, 3, got[m.Rank()], op, segs)
					})
					for r := 0; r < n; r++ {
						for j := range want {
							if math.Float64bits(got[r][j]) != math.Float64bits(want[j]) {
								t.Fatalf("n=%d dim=%d segs=%d op=%v rank=%d elem %d: got %x (%v), want %x (%v)",
									n, dim, segs, op, r, j,
									math.Float64bits(got[r][j]), got[r][j],
									math.Float64bits(want[j]), want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestRingSegmentedRepeated reuses the pooled sender machinery across many
// back-to-back collectives on the same mesh and checks the rotating buffers
// never leak state between iterations.
func TestRingSegmentedRepeated(t *testing.T) {
	const n, dim, iters = 4, 513, 20
	inputs := make([]tensor.Vector, n)
	for r := range inputs {
		inputs[r] = tensor.New(dim)
		for j := range inputs[r] {
			inputs[r][j] = float64(r + 1)
		}
	}
	want := referenceAllReduce(inputs, OpAverage)
	net, err := transport.NewLocalNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	for it := 0; it < iters; it++ {
		got := make([]tensor.Vector, n)
		for r := range got {
			got[r] = inputs[r].Clone()
		}
		done := make(chan error, n)
		for _, m := range net.Endpoints() {
			m := m
			go func() {
				done <- RingAllReduceSegmented(m, int64(it), got[m.Rank()], OpAverage, 1+it%4)
			}()
		}
		for range got {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for r := range got {
			for j := range want {
				if math.Float64bits(got[r][j]) != math.Float64bits(want[j]) {
					t.Fatalf("iter %d rank %d elem %d: got %v, want %v", it, r, j, got[r][j], want[j])
				}
			}
		}
	}
}

// deadPeerMesh makes one rank look dead to its peers: every Recv from the
// victim fails at once, and every Send to it is dropped.
type deadPeerMesh struct {
	transport.Mesh
	victim int
}

func (m deadPeerMesh) Recv(from int) (transport.Message, error) {
	if from == m.victim {
		return transport.Message{}, transport.ErrClosed
	}
	return m.Mesh.Recv(from)
}

func (m deadPeerMesh) Send(to int, msg transport.Message) error {
	if to == m.victim {
		return nil
	}
	return m.Mesh.Send(to, msg)
}

// TestRingDeadPeerNeverReturnsNil: when a rank's first receive fails, its
// sender must not push un-reduced chunks under valid tags to the next rank,
// which would accept them as partial sums and return nil with wrong values.
// Rank 2 is dead; rank 0 (receiving from it) fails at once and returns
// before the fabric closes, so every message it ever sends to rank 1 is
// queued by then. Rank 1 must end with an error, not nil.
func TestRingDeadPeerNeverReturnsNil(t *testing.T) {
	const n, victim, dim = 3, 2, 4096
	for _, segments := range []int{0, 1, 3} {
		net, err := transport.NewLocalNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := net.Endpoints()
		run := func(rank int) chan error {
			done := make(chan error, 1)
			go func() {
				v := tensor.New(dim)
				v.Fill(float64(rank + 1))
				done <- RingAllReduceSegmented(deadPeerMesh{eps[rank], victim}, 0, v, OpSum, segments)
			}()
			return done
		}
		done0, done1 := run(0), run(1)
		if err := <-done0; err == nil {
			t.Fatalf("segments %d: rank 0 returned nil after its receive failed", segments)
		}
		_ = net.Close()
		if err := <-done1; err == nil {
			t.Fatalf("segments %d: rank 1 returned nil with a dead peer in the ring", segments)
		}
	}
}
