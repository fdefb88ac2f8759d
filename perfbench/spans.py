"""Outside-in span tracer for the latscreen layers.

`Tracer.install` replaces every binding of each traced function across the
`latscreen` and `latscreen.*` module namespaces (the modules re-export with
`from .x import y` and keep aliases such as `enumeration._int_determinant`)
and patches traced methods on their class.  Each call of a patched binding
records one span: name, start, end, parent span and the workload's call
index.  Spans live in flat arrays while the pass runs; `uninstall` puts every
original object back, and `layer_metrics` folds the spans into per-layer
counts and self times (a span's duration minus the time of its child spans).
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


# post-hooks map (args, kwargs, result) to the (value, flag) stored with a span

def _len_out(args, kwargs, out):
    return len(out), 0


def _lll_noop(args, kwargs, out):
    n = len(out)
    return 0, int(all(out[i][j] == (i == j) for i in range(n) for j in range(n)))


def _enum_post(args, kwargs, out):
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    return len(out.vectors), int(int(bound) in out.norms)


def _bool_flag(args, kwargs, out):
    return 0, int(bool(out))


# (span name, defining module, attribute path, post-hook)
TARGETS = (
    ("core.Lattice", "latscreen.core", "Lattice.__init__", None),
    ("core.Lattice.inner", "latscreen.core", "Lattice.inner", None),
    ("core.Lattice.gram_times", "latscreen.core", "Lattice.gram_times", None),
    ("core.Lattice.dual_inner", "latscreen.core", "Lattice.dual_inner", None),
    ("intlinalg.divisors", "latscreen.intlinalg", "divisors", _len_out),
    ("intlinalg.smith_normal_form", "latscreen.intlinalg", "smith_normal_form", None),
    ("intlinalg.lll_rows", "latscreen.intlinalg", "lll_rows", _lll_noop),
    ("intlinalg.leading_minors", "latscreen.intlinalg", "leading_minors", None),
    ("intlinalg.determinant", "latscreen.intlinalg", "determinant", None),
    ("intlinalg.hnf_rows", "latscreen.intlinalg", "hnf_rows", None),
    ("intlinalg.rank", "latscreen.intlinalg", "rank", None),
    ("intlinalg.invariant_factors", "latscreen.intlinalg", "invariant_factors", None),
    ("intlinalg.solve_linear_system", "latscreen.intlinalg", "solve_linear_system", None),
    ("intlinalg.matmul", "latscreen.intlinalg", "matmul", None),
    ("enumeration.enumerate_up_to_norm", "latscreen.enumeration", "enumerate_up_to_norm", _enum_post),
    ("enumeration.enumerate_exact_norm", "latscreen.enumeration", "enumerate_exact_norm", None),
    ("screeners.all_screeners", "latscreen.screeners", "all_screeners", _len_out),
    ("screeners.is_screener", "latscreen.screeners", "is_screener", _bool_flag),
    ("screeners.conformal_weight", "latscreen.screeners", "conformal_weight", None),
    ("screeners.dual_pairing_unit", "latscreen.screeners", "dual_pairing_unit", None),
    ("recognition.identify_extended_type", "latscreen.recognition", "identify_extended_type", None),
    ("recognition.reduce_screener_basis", "latscreen.recognition", "reduce_screener_basis", None),
    ("recognition.recognize_components", "latscreen.recognition", "recognize_components", None),
    ("recognition.rank2_normal_form", "latscreen.recognition", "rank2_normal_form", None),
    ("pairs.analyze_screener", "latscreen.pairs", "analyze_screener", None),
    ("pairs.pair_decompositions", "latscreen.pairs", "pair_decompositions", None),
    ("pairs.make_type_i", "latscreen.pairs", "make_type_i", None),
    ("pairs.type_ii_feasible", "latscreen.pairs", "type_ii_feasible", None),
    ("pairs.type_iii_feasible", "latscreen.pairs", "type_iii_feasible", None),
    ("pairs.type_iv_search", "latscreen.pairs", "type_iv_search", None),
    ("cli.main", "latscreen.cli", "main", None),
    ("cli.parse_lattice", "latscreen.cli", "parse_lattice", None),
)

# extra statistics beyond calls and self_s: metric suffix -> (unit, better)
EXTRA = {
    "intlinalg.divisors": {"out": ("count", "lower")},
    "intlinalg.lll_rows": {"noop_ratio": ("ratio", "higher")},
    "enumeration.enumerate_up_to_norm": {"vectors_out": ("count", "lower")},
    "screeners.all_screeners": {"vectors_out": ("count", "lower")},
    "screeners.is_screener": {"hit_ratio": ("ratio", "higher")},
}
# metrics not tied to one traced function
GLOBAL = {
    "screeners.shells.walked": ("count", "lower"),
    "screeners.shells.hit_ratio": ("ratio", "higher"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def metric_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    out = []
    for name, _, _, _ in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        for stat, (unit, better) in EXTRA.get(name, {}).items():
            out.append((f"{name}.{stat}", unit, better))
    out.extend((name, unit, better) for name, (unit, better) in GLOBAL.items())
    return out


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None when the
    module or attribute no longer exists."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        return None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.flag = array("b")
        self.stack = [-1]
        self.call_id = -1
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, nid: int, fn, post):
        name_id, parent, call = self.name_id, self.parent, self.call
        start, end, value, flag = self.start, self.end, self.value, self.flag
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            call.append(tracer.call_id)
            start.append(0.0)
            end.append(0.0)
            value.append(0)
            flag.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if post is not None:
                value[idx], flag[idx] = post(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "latscreen" or n.startswith("latscreen."))]
        for nid, (name, module_name, path, post) in enumerate(TARGETS):
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            wrapper = self._wrap(nid, original, post)
            if isinstance(owner, type):
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self.patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def __len__(self) -> int:
        return len(self.name_id)

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "value": np.frombuffer(self.value, dtype=np.int64),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
        }

    def write(self, path) -> None:
        """Save the spans as a compressed .npz, span names included."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over all recorded spans
        (the caller adds cli.stdout_bytes and trace.overhead_ratio)."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=k)
        values = np.bincount(a["name_id"], weights=a["value"], minlength=k)
        flags = np.bincount(a["name_id"], weights=a["flag"], minlength=k)

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
        nid = self.names.index
        out["intlinalg.divisors.out"] = int(values[nid("intlinalg.divisors")])
        lll = nid("intlinalg.lll_rows")
        out["intlinalg.lll_rows.noop_ratio"] = ratio(flags[lll], calls[lll])
        out["enumeration.enumerate_up_to_norm.vectors_out"] = int(
            values[nid("enumeration.enumerate_up_to_norm")])
        out["screeners.all_screeners.vectors_out"] = int(values[nid("screeners.all_screeners")])
        scr = nid("screeners.is_screener")
        out["screeners.is_screener.hit_ratio"] = ratio(flags[scr], calls[scr])

        # a shell is one enumerate_up_to_norm call whose nearest enumeration
        # or all_screeners ancestor is all_screeners
        enum_id, all_id = nid("enumeration.enumerate_up_to_norm"), nid("screeners.all_screeners")
        exact_id = nid("enumeration.enumerate_exact_norm")
        names_arr, parents = a["name_id"], a["parent"]
        walked = hits = 0
        for idx in np.flatnonzero(names_arr == enum_id):
            p = parents[idx]
            while p >= 0 and names_arr[p] not in (all_id, enum_id, exact_id):
                p = parents[p]
            if p >= 0 and names_arr[p] == all_id:
                walked += 1
                hits += int(a["flag"][idx])
        out["screeners.shells.walked"] = walked
        out["screeners.shells.hit_ratio"] = ratio(hits, walked)
        return out
