package collective

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Pipelined, segmented ring AllReduce.
//
// The seed implementation ran each of the 2(N−1) ring steps as a strictly
// serial Send-then-Recv: every step paid the full link latency twice and the
// per-chunk reduction sat on the critical path of the whole ring wavefront.
// This implementation overlaps communication two ways:
//
//  1. Send/Recv overlap. A sender goroutine pushes the step's outgoing
//     segments while the calling goroutine receives and reduces the
//     incoming ones, so the two directions of the full-duplex link are busy
//     simultaneously.
//
//  2. Segmentation. Each 1/N chunk is split into K segments that flow
//     through the ring back to back. While a rank reduces segment k, its
//     neighbor's segment k+1 is already in flight, so the reduction compute
//     hides behind transfer instead of serializing with it.
//
// A step-granular gate keeps the sender honest: the data sent at step s is
// the data reduced at step s−1, so the sender may not start step s until the
// receiver has finished step s−1 and issued the step's gate token. Within a
// step the K segment sends proceed without further synchronization.
//
// On top of the pipeline, the data plane is built around rotating buffers:
// except for the two steps that must source from v (the first scatter send
// and the send of the rank's own completed chunk), every hop reuses the
// buffer that just arrived. Scatter steps fold v INTO the received payload
// (payload += v-segment, bitwise equal to v + payload) and forward that same
// buffer with an ownership-transfer send; gather steps copy the payload into
// v and forward the buffer likewise. One buffer per segment thus travels the
// whole ring instead of being copied at every hop, cutting the per-rank
// memory traffic from (3N−3)·C to (N+1)·C for chunk size C.
//
// Averaging is fused into the schedule: each rank scales only its own
// completed chunk right after scatter-reduce (while it is cache-hot), so the
// gathered chunks circulate pre-averaged and the final full-vector Scale
// pass disappears.
//
// Owner-update stage (RingAllReduceStep). The owner's completed chunk is
// also the only place an optimizer step needs to run: every other rank
// would compute the same bits from the same averaged gradient and the same
// state slice. With an owner step the engine calls it on that chunk right
// after the scale — params[lo:hi] from grad[lo:hi], still in cache — and
// the gather phase then circulates the updated PARAMETERS: the step-(n−1)
// send sources from params and gather hops write into params. Each rank
// steps 1/N of the model and keeps optimizer state for that span only; the
// fp64 gather moves bits verbatim, so every rank ends with the parameters
// the replicated AllReduce-then-step would produce. A step error tears the
// ring down like a receive failure.
//
// Sender goroutines and their channels are kept on a free list and reused
// across calls, so a steady-state collective performs zero allocations:
// payload buffers come from the transport pool, rotate through the ring, and
// go back to it; the pipeline machinery is recycled.
//
// The element-wise accumulation order is identical to the serial ring
// (segmentation only changes message granularity, pairwise FP addition is
// commutative bitwise, and sum·(1/n) is the same two floats whether scaled
// at the owner or at the end), so results are bit-identical to the seed
// implementation — TestRingMatchesReference locks this in.

// maxSegments bounds the pipeline depth per chunk. Beyond ~4 segments the
// per-message overhead outgrows the extra overlap.
const maxSegments = 4

// Small-vector inline fast path.
//
// The pipelined ring below is bandwidth-optimal, but its 2(N−1) steps are
// strictly sequential: the reduction wavefront of a chunk must travel the
// whole ring before the chunk is complete, so each step costs one full link
// latency (on the TCP mesh: a writev + read syscall round per hop) while
// moving only a handful of bytes. A CPU profile of the 8-rank TCP ring at a
// 4 KiB tensor shows ~39% of samples inside syscalls — the schedule is pure
// latency, and no amount of framing work amortizes 14 serialized rendezvous
// rounds.
//
// For tensors small enough that bandwidth is irrelevant, the latency-optimal
// schedule is an allgather of the original vectors followed by a local fold
// of all N contributions in exact ring order. Power-of-two rank counts use a
// recursive-doubling (hypercube) allgather: log₂N pairwise exchange rounds,
// round k swapping the 2^k vectors each side has accumulated, so an 8-rank
// collective costs 3 sends + 3 receives per rank instead of the ring's 14
// sequential hops — on a loopback TCP mesh that is the difference between 48
// and 224 syscalls per collective. Other rank counts fall back to a direct
// all-to-all: every rank sends its full vector to every peer in one
// concurrent round (N−1 messages per rank, still one round of latency).
//
// Bit-identity is preserved: chunk c is folded starting from rank c's data
// in ring order c, c+1, …, c−1, which is exactly the serial ring's
// association (its final seg+=payload step has the operands swapped, and
// pairwise FP addition is commutative bitwise); OpAverage multiplies the
// completed sum by 1/n just as the owner-side Scale does. The path is taken
// on a deterministic SPMD predicate (rank count, vector length, wire dtype,
// segment pin — all agreed across ranks), so no rank can disagree about the
// schedule. TestRingMatchesReference covers both paths: its small dims take
// the inline route, dim 4099 and every pinned segment depth keep exercising
// the pipelined ring.

// ringInlineMaxBytes is the largest vector the inline path accepts: beyond
// 8 KiB the N·(N−1) full-vector traffic starts to outweigh the saved hops
// and the bandwidth-optimal ring wins again.
const ringInlineMaxBytes = 8 << 10

// ringInlineMaxRanks caps the fan-out (the all-to-all is O(N²) messages)
// and sizes the path's stack arrays.
const ringInlineMaxRanks = 32

// ringInlineEligible reports whether the (ranks, elems) point belongs to the
// inline schedule. Every input is SPMD-agreed, so all ranks branch the same
// way.
func ringInlineEligible(n, elems int) bool {
	return n <= ringInlineMaxRanks && elems*8 <= ringInlineMaxBytes
}

// ringAllReduceInline dispatches between the two inline allgather schedules
// and runs the shared ring-order fold.
func ringAllReduceInline(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp) error {
	n := m.Size()
	var srcs [ringInlineMaxRanks][]float64
	var err error
	var release func()
	if n&(n-1) == 0 {
		release, err = ringInlineHypercube(m, iter, v, srcs[:n])
	} else {
		release, err = ringInlinePairwise(m, iter, v, srcs[:n])
	}
	if err == nil {
		ringInlineFold(v, srcs[:n], op)
	}
	release()
	return err
}

// ringInlineHypercube allgathers the original vectors by recursive doubling:
// round k exchanges the 2^k vectors accumulated so far with the partner
// rank^2^k, which owns the adjacent aligned block of the rank space. The
// gather arena is laid out rank-major, so each round ships one contiguous
// slice and deposits the partner's block into its contiguous home. Requires
// a power-of-two rank count. srcs[r] is filled with rank r's original
// vector; the returned release function frees the arena (and must run after
// the fold).
func ringInlineHypercube(m transport.Mesh, iter int64, v tensor.Vector, srcs [][]float64) (func(), error) {
	n := m.Size()
	rank := m.Rank()
	dim := len(v)
	arena := transport.GetPayload(n * dim)
	release := func() { transport.PutPayload(arena) }
	copy(arena[rank*dim:(rank+1)*dim], v)
	tag := int32(0)
	for g := 1; g < n; g <<= 1 {
		partner := rank ^ g
		mb := rank &^ (g - 1)    // base of the block this rank has gathered
		pb := partner &^ (g - 1) // base of the partner's block
		if err := m.Send(partner, transport.Message{
			Type:    transport.MsgChunk,
			Iter:    iter,
			Chunk:   tag, // tag = exchange round
			Payload: arena[mb*dim : (mb+g)*dim],
		}); err != nil {
			return release, fmt.Errorf("ring inline send: %w", err)
		}
		msg, err := m.Recv(partner)
		if err != nil {
			return release, fmt.Errorf("ring inline recv: %w", err)
		}
		if err := checkMsg("ring", msg, transport.MsgChunk, iter, tag); err != nil {
			transport.PutPayload(msg.Payload)
			return release, err
		}
		if len(msg.Payload) != g*dim {
			transport.PutPayload(msg.Payload)
			return release, fmt.Errorf("%w: ring inline payload %d elems, want %d", ErrProtocol, len(msg.Payload), g*dim)
		}
		copy(arena[pb*dim:(pb+g)*dim], msg.Payload)
		transport.PutPayload(msg.Payload)
		tag++
	}
	for r := 0; r < n; r++ {
		srcs[r] = arena[r*dim : (r+1)*dim]
	}
	return release, nil
}

// ringInlinePairwise allgathers by direct exchange: every rank sends its
// full vector to every peer, all sends before any receive. The local mesh
// enqueues without blocking and the TCP mesh's flush/drain-assist protocol
// makes a send round that overruns the socket buffer drain inbound frames
// instead of deadlocking, so send-all-then-receive is safe on every mesh.
// srcs[r] is rank r's vector — peers' arrive as pooled payloads, this rank's
// slot aliases v itself (safe: the fold reads every contribution of element
// i before writing v[i]).
func ringInlinePairwise(m transport.Mesh, iter int64, v tensor.Vector, srcs [][]float64) (func(), error) {
	n := m.Size()
	rank := m.Rank()
	srcs[rank] = v
	release := func() {
		for r := 0; r < n; r++ {
			if r != rank {
				transport.PutPayload(srcs[r])
			}
		}
	}
	for d := 1; d < n; d++ {
		if err := m.Send((rank+d)%n, transport.Message{
			Type:    transport.MsgChunk,
			Iter:    iter,
			Chunk:   int32(rank), // tag = sender rank
			Payload: v,
		}); err != nil {
			return release, fmt.Errorf("ring inline send: %w", err)
		}
	}
	for d := 1; d < n; d++ {
		from := mod(rank-d, n)
		msg, err := m.Recv(from)
		if err != nil {
			return release, fmt.Errorf("ring inline recv: %w", err)
		}
		if err := checkMsg("ring", msg, transport.MsgChunk, iter, int32(from)); err != nil {
			transport.PutPayload(msg.Payload)
			return release, err
		}
		if len(msg.Payload) != len(v) {
			transport.PutPayload(msg.Payload)
			return release, fmt.Errorf("%w: ring inline payload %d elems, want %d", ErrProtocol, len(msg.Payload), len(v))
		}
		srcs[from] = msg.Payload
	}
	return release, nil
}

// ringInlineFold reduces all n gathered vectors into v in the serial ring's
// exact accumulation order: chunk c starts from rank c's data and folds the
// remaining contributions in ring order c+1, c+2, …, then OpAverage scales
// the completed sums by 1/n just as the ring's owner-side Scale does.
func ringInlineFold(v tensor.Vector, srcs [][]float64, op ReduceOp) {
	n := len(srcs)
	var ord [ringInlineMaxRanks]int
	for c := 0; c < n; c++ {
		cs, ce, _ := tensor.ChunkBounds(len(v), n, c)
		for j := 0; j < n; j++ {
			ord[j] = (c + j) % n
		}
		for i := cs; i < ce; i++ {
			acc := srcs[ord[0]][i]
			for j := 1; j < n; j++ {
				acc += srcs[ord[j]][i]
			}
			v[i] = acc
		}
	}
	if op == OpAverage {
		v.Scale(1 / float64(n))
	}
}

// minSegmentElems is the smallest segment worth pipelining; chunks below
// 2*minSegmentElems travel as a single message.
const minSegmentElems = 8192

// defaultSegments picks the pipeline depth for a chunk of chunkElems
// elements.
func defaultSegments(chunkElems int) int {
	s := chunkElems / minSegmentElems
	if s < 1 {
		return 1
	}
	if s > maxSegments {
		return maxSegments
	}
	return s
}

// segTag packs (chunk, segment) into the message Chunk field. ringAllReduce
// validates n·segments against the int32 tag space up front (ErrTagOverflow),
// so the packing here cannot wrap.
func segTag(chunkIdx, segments, k int) int32 {
	return int32(chunkIdx*segments + k)
}

// checkSegTagSpace rejects (rank count, pipeline depth) combinations whose
// packed tags would overflow the int32 Chunk field: the largest tag is
// n·segments − 1, so n·segments must stay within MaxInt32. Without this
// guard distinct segments would silently alias onto one tag and defeat the
// protocol checks.
func checkSegTagSpace(n, segments int) error {
	if n < 1 || segments < 1 || int64(n)*int64(segments) > math.MaxInt32 {
		return fmt.Errorf("%w: %d ranks x %d segments exceeds int32 tag space", ErrTagOverflow, n, segments)
	}
	return nil
}

// sendChunkIndex returns the chunk a rank sends at global step s: scatter
// steps 0..n-2 walk backwards from the rank's own chunk, gather steps
// n-1..2n-3 circulate the completed chunks.
func sendChunkIndex(rank, n, s int) int {
	if s < n-1 {
		return mod(rank-s, n)
	}
	return mod(rank+1-(s-(n-1)), n)
}

// ringJob describes one collective's send schedule to a ringSender.
type ringJob struct {
	m    transport.Mesh
	iter int64
	// v is the gather-phase vector: the step-(n−1) send of the own chunk
	// sources from it (the reduced vector, or params under an owner step).
	v     tensor.Vector
	n     int
	rank  int
	segs  int
	steps int
	// wire is the allgather phase's wire dtype: sends at steps ≥ n−1 carry
	// it. Scatter-reduce traffic always ships fp64 — compressing partial
	// sums would compound quantization error across hops AND break the
	// bit-identity argument, which needs every gathered element to be the
	// owner's quantized value forwarded verbatim.
	wire tensor.Dtype
}

// ringSender is a persistent sender goroutine plus its gate/result
// channels. One collective checks a sender out for its whole duration; the
// free list recycles them so repeated collectives allocate nothing.
type ringSender struct {
	jobs chan ringJob
	gate chan struct{}
	done chan error
	// fwd[st*segs+k] is the rotating buffer the receiver deposited for the
	// segment-k send of step st (nil when the step sources from v). The
	// deposit happens before the step's gate token is pushed, so the
	// channel receive orders it; run() consumes every slot of every step —
	// releasing instead of sending after a failure — so the array is all
	// nil again when the sender parks.
	fwd [][]float64
	// abort is set by the receiver before it tops the gate up after a
	// failure. Every slot the receiver never reached is nil, and sending v
	// in its place would hand peers raw data under a valid tag, which they
	// would reduce as a partial sum and return nil with wrong values. Once
	// abort is set the sender releases buffers without sending. It is
	// cleared before the next job is submitted.
	abort atomic.Bool
	// oneShot senders (rings wider than gateCap/2+1 ranks) are not
	// returned to the free list; their goroutine exits after the job.
	oneShot bool
}

// gateCap is the token capacity of pooled senders: 2(N−1) tokens for rings
// of up to 33 ranks. Wider rings get a one-shot sender sized to fit.
const gateCap = 64

// maxIdleSenders bounds the free list; beyond it senders are shut down.
const maxIdleSenders = 64

var (
	idleSendersMu sync.Mutex
	idleSenders   []*ringSender
)

func newRingSender(tokens int, oneShot bool) *ringSender {
	s := &ringSender{
		jobs:    make(chan ringJob, 1),
		gate:    make(chan struct{}, tokens),
		done:    make(chan error, 1),
		oneShot: oneShot,
	}
	go s.loop()
	return s
}

func getRingSender(steps int) *ringSender {
	if steps > gateCap {
		return newRingSender(steps, true)
	}
	idleSendersMu.Lock()
	if n := len(idleSenders); n > 0 {
		s := idleSenders[n-1]
		idleSenders[n-1] = nil
		idleSenders = idleSenders[:n-1]
		idleSendersMu.Unlock()
		return s
	}
	idleSendersMu.Unlock()
	return newRingSender(gateCap, false)
}

// putRingSender parks a drained sender on the free list (its gate and done
// channels are empty by the token-accounting protocol below).
func putRingSender(s *ringSender) {
	if !s.oneShot {
		idleSendersMu.Lock()
		if len(idleSenders) < maxIdleSenders {
			idleSenders = append(idleSenders, s)
			idleSendersMu.Unlock()
			return
		}
		idleSendersMu.Unlock()
	}
	close(s.jobs) // terminates the goroutine
}

func (s *ringSender) loop() {
	for job := range s.jobs {
		s.done <- s.run(job)
		if s.oneShot {
			return
		}
	}
}

// run executes one collective's send side. It consumes exactly job.steps
// gate tokens and every fwd slot no matter what: after a send failure or a
// receiver abort it keeps draining tokens and releases deposited buffers
// without sending, so the sender, its channels, and its fwd array are clean
// for reuse. The receiver guarantees all job.steps tokens are eventually
// issued.
func (s *ringSender) run(job ringJob) error {
	left := (job.rank + 1) % job.n
	var firstErr error
	for st := 0; st < job.steps; st++ {
		<-s.gate
		idx := sendChunkIndex(job.rank, job.n, st)
		cs, ce, _ := tensor.ChunkBounds(len(job.v), job.n, idx)
		for k := 0; k < job.segs; k++ {
			slot := st*job.segs + k
			buf := s.fwd[slot]
			s.fwd[slot] = nil
			if firstErr != nil || s.abort.Load() {
				transport.PutPayload(buf)
				continue
			}
			msg := transport.Message{
				Type:  transport.MsgChunk,
				Iter:  job.iter,
				Chunk: segTag(idx, job.segs, k),
			}
			if st >= job.n-1 {
				// Gather phase: the segment holds final (pre-quantized)
				// values, so the wire dtype applies. Forwarded buffers
				// already sit on the quantization grid — re-encoding them
				// is exact by idempotence.
				msg.Dtype = job.wire
			}
			var err error
			if buf != nil {
				// Rotating buffer deposited by the receiver: hand it to
				// the next rank without copying.
				msg.Payload = buf
				err = transport.SendOwned(job.m, left, msg)
			} else {
				// Only the own-chunk gather send (step n−1) sources from
				// job.v: that chunk is complete (stepped, under an owner
				// step), gated, and never written again. Send copies, so
				// job.v stays live for the receiver.
				ss, se, _ := tensor.ChunkBounds(ce-cs, job.segs, k)
				msg.Payload = job.v[cs+ss : cs+se]
				err = job.m.Send(left, msg)
			}
			if err != nil {
				firstErr = fmt.Errorf("ring send step %d: %w", st, err)
			}
		}
	}
	return firstErr
}

// ringAllReduce is the shared engine behind RingAllReduce and
// RingAllReduceSegmented. segments <= 0 selects the depth automatically.
// wire compresses the allgather phase; residual (optional, full vector
// length) accumulates this rank's quantization error over its own chunk —
// the error-feedback hook. Only the owner sees exact pre-quantization
// values, so the residual is naturally distributed across ranks by chunk
// ownership.
func ringAllReduce(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, segments int, wire tensor.Dtype, residual tensor.Vector) error {
	n := m.Size()
	if n == 1 {
		return nil
	}
	// Small tensors with no pinned pipeline depth and a plain fp64 wire take
	// the latency-optimal inline schedule (see above). Lossy wire dtypes stay
	// on the ring: its owner-side quantize point is what makes compression
	// exact-by-idempotence, and the residual hook lives there too.
	if segments <= 0 && wire == tensor.F64 && ringInlineEligible(n, len(v)) {
		return ringAllReduceInline(m, iter, v, op)
	}
	return ringPipelined(m, iter, v, op, segments, wire, residual, v, nil)
}

// ringPipelined runs the pipelined ring. The scatter phase reduces into v;
// the gather phase writes into out, which is v itself for a plain
// AllReduce. A non-nil step is the owner-update stage: it runs on the own
// chunk right after the owner scale, as step(out[lo:hi], v[lo:hi]), so out
// then gathers the stepped values.
func ringPipelined(m transport.Mesh, iter int64, v tensor.Vector, op ReduceOp, segments int, wire tensor.Dtype, residual, out tensor.Vector, step OwnerStep) error {
	n := m.Size()
	rank := m.Rank()
	right := (rank - 1 + n) % n
	if segments <= 0 {
		segments = defaultSegments(len(v) / n)
	}
	K := segments
	if err := checkSegTagSpace(n, K); err != nil {
		return err
	}
	steps := 2 * (n - 1)

	s := getRingSender(steps)
	if need := steps * K; cap(s.fwd) < need {
		s.fwd = make([][]float64, need)
	} else {
		s.fwd = s.fwd[:need]
	}
	// Pre-deposit the step-0 sends (this rank's chunk, still its original
	// values) as rotating buffers. The copy must happen here, not in the
	// sender: if a peer fails mid-collective the usual around-the-ring
	// causality that keeps the sender ahead of v mutations breaks down, and
	// a lagging step-0 read of v would race with this rank's first gather
	// write into the same chunk. After this, the sender touches v only at
	// step n−1 (the own chunk, gated and never written afterwards).
	{
		cs, ce, _ := tensor.ChunkBounds(len(v), n, rank)
		for k := 0; k < K; k++ {
			ss, se, _ := tensor.ChunkBounds(ce-cs, K, k)
			buf := transport.GetPayload(se - ss)
			copy(buf, v[cs+ss:cs+se])
			s.fwd[k] = buf
		}
	}
	s.abort.Store(false)
	s.jobs <- ringJob{m: m, iter: iter, v: out, n: n, rank: rank, segs: K, steps: steps, wire: wire}
	pushed := 0
	// fail tears the pipeline down on a receive-side or owner-step
	// failure: abort the sender's remaining sends, top the gate up to the
	// full token count so it drains and parks, and join it so no goroutine
	// references v when the call returns.
	fail := func(err error) error {
		s.abort.Store(true)
		for ; pushed < steps; pushed++ {
			s.gate <- struct{}{}
		}
		<-s.done
		putRingSender(s)
		return err
	}

	// Scatter-reduce: after step st, rank r holds the running sum of chunk
	// (r−st−1 mod n) over st+2 ranks; after n−1 steps it owns the complete
	// sum of chunk (r+1 mod n). Then allgather circulates the completed
	// chunks; receivers overwrite. Both phases share this loop: the gate
	// token releases the matching send step, then the K segments of the
	// expected chunk are received in order. Intermediate hops reduce into
	// (or just forward) the received buffer itself, depositing it for the
	// next step's send instead of copying through v.
	for st := 0; st < steps; st++ {
		s.gate <- struct{}{}
		pushed++
		var recvIdx int
		if st < n-1 {
			recvIdx = mod(rank-st-1, n)
		} else {
			recvIdx = mod(rank-(st-(n-1)), n)
		}
		cs, ce, _ := tensor.ChunkBounds(len(v), n, recvIdx)
		for k := 0; k < K; k++ {
			msg, err := m.Recv(right)
			if err != nil {
				return fail(fmt.Errorf("ring recv: %w", err))
			}
			if err := checkMsg("ring", msg, transport.MsgChunk, iter, segTag(recvIdx, K, k)); err != nil {
				transport.PutPayload(msg.Payload)
				return fail(err)
			}
			ss, se, _ := tensor.ChunkBounds(ce-cs, K, k)
			seg := v[cs+ss : cs+se]
			if st >= n-1 {
				seg = out[cs+ss : cs+se]
			}
			switch {
			case st < n-2:
				// Intermediate scatter hop: fold v into the rotating
				// buffer (payload + v is bitwise equal to v + payload)
				// and pass the buffer on at the next step.
				err = tensor.Vector(msg.Payload).Add(seg)
				if err == nil {
					s.fwd[(st+1)*K+k] = msg.Payload
					continue
				}
			case st == n-2:
				// Final scatter hop: the rank's own chunk completes in v.
				err = seg.Add(msg.Payload)
			case st < steps-1:
				// Gather hop with a forward: keep the values and pass the
				// buffer on at the next step.
				err = seg.CopyFrom(msg.Payload)
				if err == nil {
					s.fwd[(st+1)*K+k] = msg.Payload
					continue
				}
			default:
				// Last gather hop: nothing left to forward.
				err = seg.CopyFrom(msg.Payload)
			}
			transport.PutPayload(msg.Payload)
			if err != nil {
				return fail(fmt.Errorf("ring reduce: %w", err))
			}
		}
		if st == n-2 {
			ocs, oce, _ := tensor.ChunkBounds(len(v), n, mod(rank+1, n))
			if op == OpAverage {
				// The own chunk just completed and is cache-hot: scale it
				// here so the gather circulates pre-averaged values and the
				// final full-vector Scale pass disappears. sum·(1/n) at the
				// owner is bit-identical to scaling after the gather.
				v[ocs:oce].Scale(1 / float64(n))
			}
			if wire != tensor.F64 {
				// Quantize the own chunk in place, PER SEGMENT — the same
				// spans the sender packs at step n−1 — so the values this
				// rank keeps are exactly the values every other rank
				// decodes (block scales are span-relative for I8). The
				// error feedback residual is captured here, at the only
				// point where exact fp64 values exist.
				for k := 0; k < K; k++ {
					ss, se, _ := tensor.ChunkBounds(oce-ocs, K, k)
					seg := v[ocs+ss : ocs+se]
					if residual != nil {
						tensor.RoundTripEF(wire, seg, residual[ocs+ss:ocs+se])
					} else {
						tensor.RoundTrip(wire, seg)
					}
				}
			}
			if step != nil {
				// The next gate token orders these params writes before
				// the sender's step-(n−1) read of the same span.
				if err := step(out[ocs:oce], v[ocs:oce]); err != nil {
					return fail(fmt.Errorf("ring owner step: %w", err))
				}
			}
		}
	}
	err := <-s.done
	putRingSender(s)
	return err
}
