package attack

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/stackm"
)

// passwd is the sensitive pool content of Listing 21's "read a password
// file to mem_pool".
const passwd = "root:x:0:0:root:/root:/bin/bash\ndaemon:x:1:1:/usr/sbin\n"

// runInfoLeakArray reproduces §4.3 Listing 21: a short user string is
// placed over a pool still holding the password file; storing
// MAX_USERDATA bytes from the buffer ships the remnants out.
func runInfoLeakArray(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("infoleak-array", cfg)
	const poolSize, maxUserdata = 64, 48
	if _, err := w.p.DefineGlobal("mem_pool", layout.ArrayOf(layout.Char, poolSize), false); err != nil {
		return nil, err
	}
	arena, err := w.globalArena("mem_pool")
	if err != nil {
		return nil, err
	}
	pool, err := core.NewPool(w.p.Mem, w.p.Model, arena.Base, arena.Size, "mem_pool")
	if err != nil {
		return nil, err
	}
	cfg.ApplyToPool(pool)

	// mmap/read a password file to mem_pool.
	if err := pool.LoadBytes([]byte(passwd)); err != nil {
		return nil, err
	}
	// userdata = new (mem_pool) char[MAX_USERDATA]; MAX_USERDATA <= SIZE,
	// so even a checked placement passes — the leak is not a bounds bug.
	userdata, err := pool.PlaceArray(layout.Char, maxUserdata)
	if err != nil {
		if !o.classify(err) {
			return nil, err
		}
		return o, nil
	}
	// The attacker supplies a deliberately short string.
	w.p.SetStringInput("bob")
	user := w.p.CinString()
	if err := userdata.StrNCpy(user, uint64(len(user)+1)); err != nil {
		return nil, err
	}
	// store(userdata): ships MAX_USERDATA bytes starting at userdata.
	stored, err := w.p.Mem.Read(userdata.Addr, maxUserdata)
	if err != nil {
		return nil, err
	}
	remnant := stored[len(user)+1:]
	leaked := 0
	for _, b := range remnant {
		if b != 0 {
			leaked++
		}
	}
	o.Metrics["leaked_bytes"] = float64(leaked)
	if leaked > 0 && bytes.Contains(remnant, []byte("/bin/bash")) {
		o.Succeeded = true
		o.note("%d bytes of the password file leaked past the %d-byte user string", leaked, len(user))
	}
	return o, nil
}

// runInfoLeakObject reproduces §4.3 Listing 22: a Student placed over a
// dead GradStudent does not clean its SSN, so storing the object's memory
// arena discloses it.
func runInfoLeakObject(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("infoleak-object", cfg)
	secret := []int64{111223333, 444556666, 777889999}

	_, gSize := w.sizes()
	blk, err := w.p.Heap.Alloc(gSize)
	if err != nil {
		return nil, err
	}
	gst, err := w.p.Construct(w.grad, blk)
	if err != nil {
		return nil, err
	}
	for i, s := range secret {
		if err := gst.SetIndex("ssn", int64(i), s); err != nil {
			return nil, err
		}
	}

	// Later: the arena is reused for a plain Student.
	arena := core.Arena{Base: blk, Size: gSize, Label: "gst arena"}
	if cfg.SanitizePools {
		if err := core.Sanitize(w.p.Mem, arena); err != nil {
			return nil, err
		}
	}
	if _, err := cfg.Place(w.p, arena, w.student); err != nil {
		if !o.classify(err) {
			return nil, err
		}
		return o, nil
	}
	// store(st): the stored region is the old arena; read the ssn words
	// back through a GradStudent-shaped view of the same bytes.
	leakView, err := gst.ViewAs(w.grad)
	if err != nil {
		return nil, err
	}
	recovered := 0
	for i, s := range secret {
		v, err := leakView.Index("ssn", int64(i))
		if err != nil {
			return nil, err
		}
		if v == s {
			recovered++
		}
	}
	o.Metrics["ssn_recovered"] = float64(recovered)
	if recovered == len(secret) {
		o.Succeeded = true
		o.note("all %d SSN words recovered from the reused arena", recovered)
	}
	return o, nil
}

// runDoSLoop reproduces §4.4: modifying the loop bound makes the service
// loop "iterated for a long time" (amplification) or "never taken"
// (bypassing the validation the loop performs).
func runDoSLoop(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("dos-loop", cfg)
	const baseline = 5

	serve := func(name string, attackN int64) (iters int64, validated bool, placeErr error, callErr error) {
		_, err := w.p.DefineFunc(name, []stackm.LocalSpec{
			{Name: "n", Type: layout.Int},
			{Name: "stud", Type: w.student},
		}, func(p *machine.Process, f *stackm.Frame) error {
			n, err := f.Local("n")
			if err != nil {
				return err
			}
			if err := p.Mem.WriteU32(n.Addr, baseline); err != nil {
				return err
			}
			arena, err := w.localArena(f, "stud")
			if err != nil {
				return err
			}
			gs, err := w.cfg.Place(p, arena, w.grad)
			if err != nil {
				placeErr = err
			} else {
				idx, err := ssnIndexFor(gs, uint64(n.Addr))
				if err != nil {
					return err
				}
				p.SetInput(attackN)
				if err := gs.SetIndex("ssn", idx, p.Cin()); err != nil {
					return err
				}
			}
			nv, err := p.Mem.ReadInt(n.Addr, 4)
			if err != nil {
				return err
			}
			iters, validated = seizedLoop(nv, baseline)
			return nil
		})
		if err != nil {
			callErr = err
			return
		}
		callErr = w.p.Call(name)
		return
	}

	// Amplification: n -> 2^22.
	iters, _, placeErr, callErr := serve("serveAmplified", 1<<22)
	if placeErr != nil {
		if !o.classify(placeErr) {
			return nil, placeErr
		}
		return o, nil
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	o.Metrics["loop_iterations"] = float64(iters)
	o.Metrics["amplification"] = float64(iters) / baseline

	// Starvation: n -> 0 skips the loop entirely, so validation never runs
	// — "authentication mechanisms can also be bypassed".
	_, validated, placeErr, callErr := serve("serveStarved", -1)
	if placeErr != nil && !o.classify(placeErr) {
		return nil, placeErr
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	// An abort (canary, shadow violation, ...) means the service died
	// before serving, not that the attacker slipped past validation.
	bypass := placeErr == nil && callErr == nil && !validated
	if bypass {
		o.Metrics["validation_bypassed"] = 1
	}

	if o.Metrics["amplification"] >= 1000 || bypass {
		o.Succeeded = true
		o.note("loop control seized: %.0fx amplification, validation bypassed=%v",
			o.Metrics["amplification"], bypass)
	}
	return o, nil
}

// seizedLoop is the closed form of dos-loop's service loop,
//
//	for (int i = 0; i < n; i++) { if (i == baseline-1) validate(); }
//
// which touches no simulated state: it makes max(n, 0) passes and
// validates the request on the last legit pass, i == baseline-1.
func seizedLoop(n, baseline int64) (iters int64, validated bool) {
	return max(n, 0), n >= baseline
}

// runDoSExhaust reproduces the §4.4 resource-exhaustion variant: "if the
// resources are allocated/locked inside the loop, the attacker may crash
// the program ... or might crash the whole software stack ... by using up
// all the memory". The hijacked loop bound drives per-request allocations
// until the allocator is exhausted.
func runDoSExhaust(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("dos-exhaust", cfg)
	const baseline = 5
	const perRequest = 1024

	var placeErr error
	if _, err := w.p.DefineFunc("serveRequests", []stackm.LocalSpec{
		{Name: "n", Type: layout.Int},
		{Name: "stud", Type: w.student},
	}, func(p *machine.Process, f *stackm.Frame) error {
		n, err := f.Local("n")
		if err != nil {
			return err
		}
		if err := p.Mem.WriteU32(n.Addr, baseline); err != nil {
			return err
		}
		arena, err := w.localArena(f, "stud")
		if err != nil {
			return err
		}
		gs, err := w.cfg.Place(p, arena, w.grad)
		if err != nil {
			placeErr = err
		} else {
			idx, err := ssnIndexFor(gs, uint64(n.Addr))
			if err != nil {
				return err
			}
			p.SetInput(1 << 20)
			if err := gs.SetIndex("ssn", idx, p.Cin()); err != nil {
				return err
			}
		}
		nv, err := p.Mem.ReadInt(n.Addr, 4)
		if err != nil {
			return err
		}
		// Each loop pass allocates (and "locks") a per-request buffer.
		allocs := 0
		for i := int64(0); i < nv; i++ {
			if _, err := p.Heap.Alloc(perRequest); err != nil {
				o.Metrics["allocations_before_oom"] = float64(allocs)
				o.note("allocator exhausted after %d requests: %v", allocs, err)
				return nil // the service is dead in the water
			}
			allocs++
		}
		o.Metrics["allocations_before_oom"] = float64(allocs)
		return nil
	}); err != nil {
		return nil, err
	}
	callErr := w.p.Call("serveRequests")
	if placeErr != nil {
		if !o.classify(placeErr) {
			return nil, placeErr
		}
		return o, nil
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	stats := w.p.Heap.Stats()
	o.Metrics["heap_in_use"] = float64(stats.InUse)
	// Success: the attacker drove allocation far past the legitimate
	// baseline and pinned essentially the whole heap.
	if o.Metrics["allocations_before_oom"] > baseline*10 &&
		stats.InUse > w.p.Img.Heap.Size()*9/10 {
		o.Succeeded = true
		o.note("heap exhausted: %d bytes pinned (%.0f%% of the arena)",
			stats.InUse, 100*float64(stats.InUse)/float64(w.p.Img.Heap.Size()))
	}
	return o, nil
}

// runDanglingWrite models the write-side twin of the §4.5 lifecycle
// bug: a placement is released through an undersized pointer
// (Listing 23's pattern) but a stale view of the dead object survives,
// and the attacker drives one more store through it between release and
// arena reuse. The store lands outside the next tenant's extent, so
// zero-initialising the replacement Student never wipes it — only
// quarantine (shadow) faults the store itself, and only arena
// sanitization (§5.1) scrubs the planted word before reuse.
func runDanglingWrite(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("dangling-write", cfg)
	if _, err := w.p.DefineGlobal("pool", w.grad, false); err != nil {
		return nil, err
	}
	arena, err := w.globalArena("pool")
	if err != nil {
		return nil, err
	}
	sSize, gSize := w.sizes()
	o.Metrics["stale_window"] = float64(gSize - sSize)

	gs, err := cfg.Place(w.p, arena, w.grad)
	if err != nil {
		if !o.classify(err) {
			return nil, err
		}
		return o, nil
	}
	ssnAddr, err := gs.FieldAddr("ssn")
	if err != nil {
		return nil, err
	}
	// The program releases the record through a Student-typed pointer
	// (Listing 23) but a stale GradStudent* survives in the attacker's
	// reach.
	if err := cfg.Release(w.p, arena.Base, sSize); err != nil {
		return nil, err
	}
	// One more store through the dead placement.
	if err := gs.SetIndex("ssn", 0, 0x5A5A5A5A); err != nil {
		if !o.classify(err) {
			return nil, err
		}
		return o, nil
	}
	// Later, the arena is reused for a fresh Student. A sanitizing
	// program (§5.1) scrubs the arena first.
	if cfg.SanitizePools {
		if err := core.Sanitize(w.p.Mem, arena); err != nil {
			return nil, err
		}
	}
	if _, err := cfg.Place(w.p, arena, w.student); err != nil {
		if !o.classify(err) {
			return nil, err
		}
		return o, nil
	}
	got, err := w.p.Mem.ReadU32(ssnAddr)
	if err != nil {
		return nil, err
	}
	if got == 0x5A5A5A5A {
		o.Succeeded = true
		o.note("stale store through released placement persisted past reuse: [%#x] = %#x",
			uint64(ssnAddr), got)
	}
	return o, nil
}

// runMemLeak reproduces §4.5 Listing 23: each iteration allocates a
// GradStudent arena but releases it through a Student-typed pointer,
// leaking the size difference every pass.
func runMemLeak(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("memleak", cfg)
	sSize, gSize := w.sizes()
	const iters = 50
	for i := 0; i < iters; i++ {
		blk, err := w.p.Heap.Alloc(gSize)
		if err != nil {
			o.note("allocator exhausted after %d iterations", i)
			break
		}
		if _, err := w.p.Construct(w.grad, blk); err != nil {
			return nil, err
		}
		// Student st = new (stud) Student(); ... stud = null; // "free"
		if _, err := core.PlacementNew(w.p.Mem, w.p.Model, blk, w.student); err != nil {
			return nil, err
		}
		if err := cfg.Release(w.p, blk, sSize); err != nil {
			return nil, err
		}
	}
	leaked := w.p.Tracker.Leaked()
	o.Metrics["leaked_bytes"] = float64(leaked)
	o.Metrics["leak_per_iteration"] = float64(leaked) / iters
	o.Metrics["expected_per_iteration"] = float64(gSize - sSize)
	if leaked > 0 {
		o.Succeeded = true
		o.note("%d bytes leaked over %d iterations (%d per pass = sizeof(GradStudent)-sizeof(Student))",
			leaked, iters, gSize-sSize)
	}
	return o, nil
}
