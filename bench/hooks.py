"""Wrappers the benchmark puts around dimerchain's functions, from outside.

A Recorder always wraps runner.find_dimer, to time each grid point and to
keep the eigenpair it returned for the correctness checks.  In a traced
run it also wraps the calls into each layer and records one span per
call: name, start, end, parent and a few counts.  Spans and captures
stay in memory until the run ends.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  Each worker appends what it recorded to its own file after
every find_dimer call, and the parent merges those files when the pool
has finished (Recorder.collect_workers).
"""

import functools
import json
import os
import pickle
import time

import numpy as np

# span fields
ID, PARENT, NAME, START, END, ATTRS = range(6)

LAYER_CALLS = {
    "analysis": ("classify_state", "k_delta_decompose", "fermionic_overlap",
                 "fermionic_basis"),
    "theory": ("asymptotic_dimer",),
}
RECORD_WRITERS = ("write_records", "write_meta", "write_table", "write_vectors",
                  "line_plot", "heatmap")


class Recorder:
    def __init__(self, workdir, trace):
        self.workdir = workdir
        self.trace = trace
        self.root_pid = self.pid = os.getpid()
        self.calls = []  # one dict per find_dimer call
        self.spans = []
        self.stack = []  # open spans, innermost last
        self.base_depth = 0
        self._next_id = 0
        self._undo = []

    # ------------------------------------------------------------ spans

    def _own_process(self):
        # a forked worker starts with a copy of the parent's records:
        # drop them, keep the open stack so its spans link to the pool span
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.calls, self.spans = [], []
            self.base_depth = len(self.stack)
            self._next_id = 0

    def _enter(self, name):
        self._own_process()
        span = [f"{self.pid}:{self._next_id}",
                self.stack[-1][ID] if self.stack else None,
                name, time.perf_counter(), None, {}]
        self._next_id += 1
        self.stack.append(span)
        return span

    def _exit(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def bump(self, key, by=1):
        """Add to a count on the innermost open span."""
        if self.stack:
            attrs = self.stack[-1][ATTRS]
            attrs[key] = attrs.get(key, 0) + by

    def timed(self, name, fn, after=None):
        """fn with a span around each call; after(span, result, args) may
        record attributes and returns the result to hand back."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
                return after(span, out, args) if after else out
            except Exception as e:
                span[ATTRS]["error"] = type(e).__name__
                raise
            finally:
                self._exit(span)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:  # not in this version of the program: its metrics read 0
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def install(self, dc):
        """Wrap find_dimer, and every layer when tracing.  dc is the
        imported dimerchain package."""
        runner = dc.experiments.runner
        self._patch(runner, "find_dimer", self._wrap_find_dimer)
        if not self.trace:
            return
        eig, model = dc.eig, dc.model
        op = model.TwoExcitationWaveguideOp
        self._patch(eig, "eig_target", lambda f: self.timed("eig.eig_target", f))
        self._patch(eig, "_arnoldi_extend", self._counted("krylov_extends"))
        self._patch(eig, "_make_shift_solver",
                    lambda f: self.timed("eig.shift_setup", f, self._after_shift_setup))
        self._patch(eig, "_as_matvec", self._wrap_as_matvec)
        self._patch(eig, "spla", lambda m: _CountingGmres(m, self))
        self._patch(eig, "eig_dense_all", lambda f: self.timed("eig.eig_dense_all", f))
        self._patch(runner, "build_two_hamiltonian",
                    lambda f: self.timed("model.build_two_hamiltonian", f))
        self._patch(op, "matvec", lambda f: self.timed("model.matvec", f))
        self._patch(op, "shift_preconditioner", lambda f: self.timed(
            "model.shift_preconditioner.setup", f,
            lambda span, apply, args: self.timed("model.shift_preconditioner.apply",
                                                 apply)))
        for layer, names in LAYER_CALLS.items():
            module = getattr(dc, layer)
            for name in names:
                self._patch(module, name,
                            lambda f, n=f"{layer}.{name}": self.timed(n, f))
        self._patch(runner, "_targeted_two_exc",
                    lambda f: self.timed("runner.targeted_two_exc", f))
        self._patch(runner, "_pmap", lambda f: self.timed("runner.pool", f))
        for name in RECORD_WRITERS:
            self._patch(runner, name,
                        lambda f: self.timed("records.write", f, _file_bytes))

    def _counted(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.bump(key)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _after_shift_setup(self, span, solve, args):
        if isinstance(args[0], np.ndarray):  # a dense factorization
            span[ATTRS]["matrix_mb"] = 16.0 * args[0].shape[0] ** 2 / 1e6
        # functools.wraps carries solve.stats, which eig_target reads
        return self.timed("eig.shift_apply", solve)

    def _wrap_as_matvec(self, fn):
        @functools.wraps(fn)
        def as_matvec(apply_H):
            mv = fn(apply_H)
            # eig_target's own products are the true-residual checks; the
            # GMRES operator built during the shift setup is not
            if self.stack and self.stack[-1][NAME] == "eig.eig_target":
                return self.timed("eig.residual_matvec", mv)
            return mv
        return as_matvec

    def _wrap_find_dimer(self, fn):
        @functools.wraps(fn)
        def find_dimer(chain, dimer_type, *args, **kwargs):
            self._own_process()
            span = self._enter("runner.find_dimer") if self.trace else None
            t0 = time.perf_counter()
            call = {"N": chain.N, "kd": chain.kd, "gamma": chain.gamma1d,
                    "type": dimer_type, "lam": None, "vector": None, "error": None}
            try:
                pair, cls, spec = fn(chain, dimer_type, *args, **kwargs)
            except Exception as e:
                call["error"] = type(e).__name__
                raise
            else:
                if pair is not None:
                    call.update(lam=pair.lam, vector=pair.vector, label=cls.label)
                    if span:
                        span[ATTRS]["kept"] = 1
                return pair, cls, spec
            finally:
                call["seconds"] = time.perf_counter() - t0
                if span:
                    self._exit(span)
                self.calls.append(call)
                if self.pid != self.root_pid and len(self.stack) == self.base_depth:
                    self._flush_worker()

        return find_dimer

    # ------------------------------------------------------------ workers

    def _flush_worker(self):
        path = os.path.join(self.workdir, f"worker-{self.pid}.pkl")
        with open(path, "ab") as f:
            pickle.dump((self.calls, self.spans), f)
        self.calls, self.spans = [], []

    def collect_workers(self):
        """Merge and delete the files the pool workers wrote."""
        for name in sorted(os.listdir(self.workdir)):
            if not (name.startswith("worker-") and name.endswith(".pkl")):
                continue
            path = os.path.join(self.workdir, name)
            with open(path, "rb") as f:
                while True:
                    try:
                        calls, spans = pickle.load(f)
                    except EOFError:
                        break
                    self.calls.extend(calls)
                    self.spans.extend(spans)
            os.remove(path)


class _CountingGmres:
    """scipy.sparse.linalg, with a GMRES that counts its inner iterations."""

    def __init__(self, module, rec):
        self._module = module
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._module, name)

    def gmres(self, *args, callback=None, **kwargs):
        def count(resid):
            self._rec.bump("gmres_iters")
            if callback is not None:
                callback(resid)
        kwargs.setdefault("callback_type", "pr_norm")
        return self._module.gmres(*args, callback=count, **kwargs)


def _file_bytes(span, out, args):
    path = args[0] if args else None
    if isinstance(path, str) and os.path.exists(path):
        span[ATTRS]["bytes"] = os.path.getsize(path)
    return out


def layer_metrics(spans, root_pid, rounds):
    """Per-layer metrics from the spans of a run, per round: {name: (value, unit)}."""
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        children.setdefault(s[PARENT], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def seconds(spans_):
        return sum(s[END] - s[START] for s in spans_)

    def attr(name, key):
        return sum(s[ATTRS].get(key, 0) for s in named(name))

    def under(span, name):
        return [c for c in children.get(span[ID], []) if c[NAME] == name]

    targets = named("eig.eig_target")
    finds = named("runner.find_dimer")
    kept = sum(s[ATTRS].get("kept", 0) for s in finds)
    states = sum(len(under(s, "analysis.classify_state")) for s in finds)
    per_round = {
        "eig.shift_setup.calls": (len(named("eig.shift_setup")), "count"),
        "eig.shift_setup.s": (seconds(named("eig.shift_setup"))
                              + seconds(named("model.shift_preconditioner.setup")), "s"),
        "eig.shift_setup.matrix_mb": (attr("eig.shift_setup", "matrix_mb"), "MB"),
        "eig.shift_apply.calls": (len(named("eig.shift_apply")), "count"),
        "eig.shift_apply.s": (seconds(named("eig.shift_apply")), "s"),
        "eig.gmres.iters": (attr("eig.shift_apply", "gmres_iters"), "count"),
        "eig.inner_stagnations": (sum(s[ATTRS].get("error") == "InnerSolveStagnation"
                                      for s in named("eig.shift_apply")), "count"),
        "eig.restarts": (sum(max(0, s[ATTRS].get("krylov_extends", 0) - 1)
                             for s in targets), "count"),
        "eig.residual_matvec.calls": (len(named("eig.residual_matvec")), "count"),
        "eig.residual_matvec.s": (seconds(named("eig.residual_matvec")), "s"),
        "eig.eig_target.self_s": (seconds(targets) - sum(
            seconds(children.get(s[ID], [])) for s in targets), "s"),
        "eig.eig_dense_all.calls": (len(named("eig.eig_dense_all")), "count"),
        "eig.eig_dense_all.s": (seconds(named("eig.eig_dense_all")), "s"),
        "model.build_two_hamiltonian.calls": (len(named("model.build_two_hamiltonian")),
                                              "count"),
        "model.build_two_hamiltonian.s": (seconds(named("model.build_two_hamiltonian")),
                                          "s"),
        "model.matvec.calls": (len(named("model.matvec")), "count"),
        "model.matvec.s": (seconds(named("model.matvec")), "s"),
        "model.shift_preconditioner.s": (seconds(named("model.shift_preconditioner.setup"))
                                         + seconds(named("model.shift_preconditioner.apply")),
                                         "s"),
        "analysis.classify_state.calls": (len(named("analysis.classify_state")), "count"),
        "analysis.classify_state.s": (seconds(named("analysis.classify_state")), "s"),
        "analysis.k_delta_decompose.s": (seconds(named("analysis.k_delta_decompose")), "s"),
        "analysis.fermionic_overlap.s": (seconds(named("analysis.fermionic_overlap")), "s"),
        "analysis.fermionic_basis.s": (seconds(named("analysis.fermionic_basis")), "s"),
        "theory.asymptotic_dimer.calls": (len(named("theory.asymptotic_dimer")), "count"),
        "runner.find_dimer.calls": (len(finds), "count"),
        "runner.find_dimer.escalations": (sum(
            max(0, len(under(s, "runner.targeted_two_exc")) - 1) for s in finds), "count"),
        "runner.pool.wall_s": (seconds(named("runner.pool")), "s"),
        "runner.pool.busy_s": (seconds(s for s in finds
                                       if not s[ID].startswith(f"{root_pid}:")), "s"),
        "records.write.s": (seconds(named("records.write")), "s"),
        "records.bytes": (attr("records.write", "bytes"), "bytes"),
    }
    out = {k: (v / rounds, u) for k, (v, u) in per_round.items()}
    # a ratio of two per-round totals needs no division by rounds
    out["runner.find_dimer.states_per_dimer"] = (states / kept if kept else 0.0,
                                                 "states/dimer")
    return out


def write_spans(path, spans):
    """All spans as JSON: [id, parent id, name, start s, end s, attributes]."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "attrs"],
                   "spans": spans}, f)
        f.write("\n")
