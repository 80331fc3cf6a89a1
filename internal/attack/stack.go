package attack

import (
	"math"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/object"
	"repro/internal/stackm"
)

// localArena builds the checked-placement arena for a frame local.
func (w *world) localArena(f *stackm.Frame, name string) (core.Arena, error) {
	l, err := f.Local(name)
	if err != nil {
		return core.Arena{}, err
	}
	return core.Arena{Base: l.Addr, Size: l.Type.Size(w.p.Model), Label: "local " + name}, nil
}

// stackRetAttack is the shared §3.6 skeleton: addStudent() places a
// GradStudent over its local stud and feeds attacker words into ssn[].
// The write strategy receives the placed object and the frame so it can
// perform either the spray (Listing 13) or the §5.2 canary-skip.
func (w *world) stackRetAttack(o *Outcome, write func(gs *object.Object, f *stackm.Frame) error) error {
	var placeErr error
	if _, err := w.p.DefineFunc("addStudent", []stackm.LocalSpec{
		{Name: "stud", Type: w.student},
	}, func(p *machine.Process, f *stackm.Frame) error {
		arena, err := w.localArena(f, "stud")
		if err != nil {
			return err
		}
		gs, err := w.cfg.Place(p, arena, w.grad)
		if err != nil {
			placeErr = err // the program takes its error path and returns
			return nil
		}
		ssnBase, err := gs.FieldAddr("ssn")
		if err != nil {
			return err
		}
		o.Metrics["ret_ssn_index"] = float64(f.RetSlot.Diff(ssnBase) / 4)
		return write(gs, f)
	}); err != nil {
		return err
	}
	callErr := w.p.Call("addStudent")
	if placeErr != nil {
		if !o.classify(placeErr) {
			return placeErr
		}
		return nil
	}
	if callErr != nil && !o.classify(callErr) {
		return callErr
	}
	return nil
}

// runStackRet reproduces §3.6.1 Listing 13: the while loop sprays every
// positive dssn into ssn[i], walking over (canary,) saved FP and the
// return address.
func runStackRet(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("stack-ret", cfg)
	logf, err := w.p.DefineFunc("logStudent", nil, nil)
	if err != nil {
		return nil, err
	}
	w.p.SetInput(int64(logf.Addr), int64(logf.Addr), int64(logf.Addr))
	if err := w.stackRetAttack(o, func(gs *object.Object, _ *stackm.Frame) error {
		for i := int64(0); i < 3; i++ {
			if dssn := w.p.Cin(); dssn > 0 {
				if err := gs.SetIndex("ssn", i, dssn); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if w.p.HasEvent(machine.EvArcInjection) {
		o.Succeeded = true
		o.note("return address redirected to logStudent() at %#x", uint64(logf.Addr))
	}
	return o, nil
}

// runCanarySkip reproduces the §5.2 experiment: supply non-positive values
// for the words covering the canary (and saved FP) so only the
// return-address word is written; StackGuard verifies an intact canary
// and the hijack proceeds — unless a shadow stack is present.
func runCanarySkip(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("canary-skip", cfg)
	shell, err := w.p.DefinePrivilegedFunc("system_shell", nil, nil)
	if err != nil {
		return nil, err
	}
	w.p.SetInput(int64(shell.Addr))
	if err := w.stackRetAttack(o, func(gs *object.Object, f *stackm.Frame) error {
		ssnBase, err := gs.FieldAddr("ssn")
		if err != nil {
			return err
		}
		k := f.RetSlot.Diff(ssnBase) / 4
		o.Metrics["written_index"] = float64(k)
		// The two earlier loop iterations receive dssn <= 0 and skip the
		// canary/FP words entirely.
		return gs.SetIndex("ssn", k, w.p.Cin())
	}); err != nil {
		return nil, err
	}
	if w.p.HasEvent(machine.EvPrivilegedCall) {
		o.Succeeded = true
		o.note("StackGuard bypassed: canary untouched, return hijacked")
	}
	return o, nil
}

// runArcInjection reproduces §3.6.2's arc injection: the corrupted return
// address names "the address of a method that makes a system call in a
// privileged mode".
func runArcInjection(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("arc-injection", cfg)
	shell, err := w.p.DefinePrivilegedFunc("system_shell", nil, nil)
	if err != nil {
		return nil, err
	}
	w.p.SetInput(int64(shell.Addr), int64(shell.Addr), int64(shell.Addr))
	if err := w.stackRetAttack(o, func(gs *object.Object, _ *stackm.Frame) error {
		for i := int64(0); i < 3; i++ {
			if dssn := w.p.Cin(); dssn > 0 {
				if err := gs.SetIndex("ssn", i, dssn); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if w.p.HasEvent(machine.EvPrivilegedCall) {
		o.Succeeded = true
		o.note("privileged function executed via corrupted return address")
	}
	return o, nil
}

// runCodeInjection reproduces §3.6.2's code injection: shellcode goes into
// a lower local buffer and the return address is pointed at it. The stud
// local is declared first so its overflow reaches the return address.
func runCodeInjection(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("code-injection", cfg)
	var placeErr error
	if _, err := w.p.DefineFunc("addStudent", []stackm.LocalSpec{
		{Name: "stud", Type: w.student},
		{Name: "buf", Type: layout.ArrayOf(layout.Char, 64)},
	}, func(p *machine.Process, f *stackm.Frame) error {
		buf, err := f.Local("buf")
		if err != nil {
			return err
		}
		// "the size of all local variables ... is enough to inject shell
		// code": the payload arrives through ordinary input handling.
		if err := p.WriteShellcode(buf.Addr); err != nil {
			return err
		}
		arena, err := w.localArena(f, "stud")
		if err != nil {
			return err
		}
		gs, err := w.cfg.Place(p, arena, w.grad)
		if err != nil {
			placeErr = err
			return nil
		}
		for i := int64(0); i < 3; i++ {
			if err := gs.SetIndex("ssn", i, int64(buf.Addr)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	callErr := w.p.Call("addStudent")
	if placeErr != nil {
		if !o.classify(placeErr) {
			return nil, placeErr
		}
		return o, nil
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	if w.p.HasEvent(machine.EvCodeInjection) {
		o.Succeeded = true
		o.note("shellcode executed from the stack: shell spawned")
	}
	return o, nil
}

// runVarStack reproduces §3.7.2 Listing 15: the loop bound n, declared
// before stud, is rewritten by the overflowing ssn[]; the experiment also
// reports which ssn index the padding arithmetic selects.
func runVarStack(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("var-stack", cfg)
	const attackN = 1 << 20
	var placeErr error
	if _, err := w.p.DefineFunc("addStudent", []stackm.LocalSpec{
		{Name: "n", Type: layout.Int},
		{Name: "stud", Type: w.student},
	}, func(p *machine.Process, f *stackm.Frame) error {
		n, err := f.Local("n")
		if err != nil {
			return err
		}
		if err := p.Mem.WriteU32(n.Addr, 5); err != nil {
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
			o.Metrics["n_ssn_index"] = float64(idx)
			p.SetInput(attackN)
			if err := gs.SetIndex("ssn", idx, p.Cin()); err != nil {
				return err
			}
		}
		// for (int i = 0; i < n; i++) { ... } touches no simulated
		// state, so only its closed form runs: max(n, 0) passes.
		nv, err := p.Mem.ReadInt(n.Addr, 4)
		if err != nil {
			return err
		}
		o.Metrics["loop_iterations"] = float64(max(nv, 0))
		o.Metrics["n_after"] = float64(nv)
		return nil
	}); err != nil {
		return nil, err
	}
	callErr := w.p.Call("addStudent")
	if placeErr != nil {
		if !o.classify(placeErr) {
			return nil, placeErr
		}
		return o, nil
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	if o.Metrics["n_after"] == attackN {
		o.Succeeded = true
		o.note("local n overwritten 5 -> %d via ssn[%d]; loop amplified %.0fx",
			attackN, int64(o.Metrics["n_ssn_index"]), o.Metrics["loop_iterations"]/5)
	}
	return o, nil
}

// runMemberVar reproduces §3.8.1 Listing 16: the adjacent object `first`
// has its gpa member rewritten by the overflow of stud.
func runMemberVar(cfg defense.Config) (*Outcome, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := newOutcome("member-var", cfg)
	var placeErr error
	if _, err := w.p.DefineFunc("addStudent", []stackm.LocalSpec{
		{Name: "first", Type: w.student},
		{Name: "stud", Type: w.student},
	}, func(p *machine.Process, f *stackm.Frame) error {
		fl, err := f.Local("first")
		if err != nil {
			return err
		}
		first, err := object.View(p.Mem, w.student, p.Model, fl.Addr)
		if err != nil {
			return err
		}
		if err := first.Zero(); err != nil {
			return err
		}
		if err := first.SetFloat("gpa", 3.9); err != nil {
			return err
		}
		arena, err := w.localArena(f, "stud")
		if err != nil {
			return err
		}
		gs, err := w.cfg.Place(p, arena, w.grad)
		if err != nil {
			placeErr = err
			return nil
		}
		idx, err := ssnIndexFor(gs, uint64(fl.Addr))
		if err != nil {
			return err
		}
		bits := math.Float64bits(4.0)
		p.SetInput(int64(int32(uint32(bits))), int64(int32(uint32(bits>>32))))
		if err := gs.SetIndex("ssn", idx, p.Cin()); err != nil {
			return err
		}
		if err := gs.SetIndex("ssn", idx+1, p.Cin()); err != nil {
			return err
		}
		gpa, err := first.Float("gpa")
		if err != nil {
			return err
		}
		o.Metrics["first_gpa_after"] = gpa
		return nil
	}); err != nil {
		return nil, err
	}
	callErr := w.p.Call("addStudent")
	if placeErr != nil {
		if !o.classify(placeErr) {
			return nil, placeErr
		}
		return o, nil
	}
	if callErr != nil && !o.classify(callErr) {
		return nil, callErr
	}
	if o.Metrics["first_gpa_after"] == 4.0 {
		o.Succeeded = true
		o.note("first.gpa overwritten 3.9 -> 4.0 through object overflow")
	}
	return o, nil
}
