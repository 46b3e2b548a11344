package main

import (
	"fmt"
	"math/rand/v2"

	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
)

// device is the simulated devices behind one gateway: each sampled user
// perturbs its own state with OUE. Every device's randomness is seeded from
// (seed, user, t), so the reports do not depend on how users are spread
// over gateways. Rows and byte buffers are reused across rounds so the
// load generator adds no garbage of its own.
//
// The RNG state and the report row are written for every drawn bit, by one
// gateway goroutine per device. Left as small separate allocations they can
// share a cache line with another gateway's, and the two CPUs then trade
// the line on every write: on a 2-vCPU host perturbation ran 4-6x slower in
// such replays, depending only on where the allocator happened to put them.
// Real devices share no caches, so both hot fields sit away from anything
// another goroutine writes.
type device struct {
	_       [cacheLine]byte
	pcg     rand.PCG
	_       [cacheLine]byte
	rng     *rand.Rand
	seed    uint64
	oracles map[oracleKey]*ldp.OUE
	rowBuf  []uint64 // row plus a cache line of padding on each side
	row     ldp.PackedReport
	slab    []byte
	batch   []remote.PackedBatchReport
}

const cacheLine = 64

type oracleKey struct {
	d   int
	eps float64
}

func newDevices(n int, seed uint64) []*device {
	devs := make([]*device, n)
	for i := range devs {
		dv := &device{seed: seed, oracles: map[oracleKey]*ldp.OUE{}}
		dv.rng = rand.New(&dv.pcg)
		devs[i] = dv
	}
	return devs
}

// perturb produces the packed reports of the shard's sampled users. The
// returned batch aliases the device's buffers until the next call.
func (dv *device) perturb(t, d int, sh *shard, as []remote.Assignment) ([]remote.PackedBatchReport, error) {
	if len(as) != len(sh.users) {
		return nil, fmt.Errorf("%d assignments for %d users", len(as), len(sh.users))
	}
	nb := ldp.PackedBytes(d)
	if w := ldp.PackedWords(d); len(dv.row) != w {
		pad := cacheLine / 8
		dv.rowBuf = make([]uint64, pad+w+pad)
		dv.row = dv.rowBuf[pad : pad+w : pad+w]
	}
	if need := len(as) * nb; cap(dv.slab) < need {
		dv.slab = make([]byte, need)
	}
	slab := dv.slab
	dv.batch = dv.batch[:0]
	for j, a := range as {
		if !a.Report {
			continue
		}
		key := oracleKey{d, a.Epsilon}
		o, ok := dv.oracles[key]
		if !ok {
			var err error
			if o, err = ldp.NewOUE(d, a.Epsilon); err != nil {
				return nil, err
			}
			dv.oracles[key] = o
		}
		user := sh.users[j]
		clear(dv.row)
		dv.pcg.Seed(dv.seed^uint64(user)*0x9e3779b97f4a7c15, uint64(t))
		o.PerturbPackedInto(dv.rng, int(sh.idx[j]), dv.row)
		bits := slab[:nb:nb]
		slab = slab[nb:]
		putPacked(bits, dv.row)
		dv.batch = append(dv.batch, remote.PackedBatchReport{User: user, Bits: bits})
	}
	return dv.batch, nil
}

// putPacked writes a packed report in its little-endian wire form.
func putPacked(dst []byte, row ldp.PackedReport) {
	for i := range dst {
		dst[i] = byte(row[i>>3] >> (8 * uint(i&7)))
	}
}
