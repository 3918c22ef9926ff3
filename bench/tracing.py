"""Per-layer tracing from outside the library.

A `Tracer` replaces the public functions and methods listed in `WRAPPED`
with timing wrappers for the duration of one op, then puts the originals
back.  Module-level functions are replaced under every name that refers to
them inside the `shufflestar` package, so `from .products import sym_star`
in another module is traced too.  Each wrapper is a span: its duration
minus the time covered by the spans it encloses is added to the self time
of its layer, so the self times of all layers plus the op's own glue add
up to the op's wall time.  Spans are aggregated per layer as they close
instead of being kept one by one, which keeps memory flat on ops that make
millions of calls.

Some public helpers are deliberately not wrapped: `core.merge_signed`,
`relabel_factor`, `canonicalize`, the `iter_*` enumerators and element
arithmetic run millions of times per op at well under a microsecond each,
so a wrapper would cost more than the work it measures.  Their time counts
towards the layer that calls them.  Generator functions are not wrapped
either, since their work happens while the caller iterates.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

# (module, attribute or Class.method, layer): the public functions some
# workload's op calls.  Self time is reported per layer; call counts are per
# wrapped function.
WRAPPED = (
    ("core", "element_to_dict", "core"),
    ("core", "coeff_to_str", "core"),
    ("core", "coeff_from_str", "core"),
    ("core", "is_sym_invariant", "core"),
    ("core", "permute_slots", "core"),
    ("products", "sym_star", "products.sym_star"),
    ("products", "sym_shuffle", "products.sym_shuffle"),
    ("products", "star_product", "products.tensor"),
    ("products", "shuffle_product", "products.tensor"),
    ("products", "invariant_shuffle", "products.tensor"),
    ("symmetry", "pi", "symmetry.maps"),
    ("symmetry", "pi_prime", "symmetry.maps"),
    ("symmetry", "to_invariant", "symmetry.maps"),
    ("symmetry", "from_invariant", "symmetry.maps"),
    ("symmetry", "delta_sym", "symmetry.delta"),
    ("symmetry", "delta_tensor", "symmetry.delta"),
    ("symmetry", "delta_invariant", "symmetry.delta"),
    ("symmetry", "pair_star", "symmetry.pair"),
    ("symmetry", "pair_shuffle", "symmetry.pair"),
    ("symmetry", "pair_map", "symmetry.pair"),
    ("symmetry", "pair_star_invariant", "symmetry.pair"),
    ("symmetry", "pair_shuffle_invariant", "symmetry.pair"),
    ("poset", "rl_leq", "poset.rl_leq"),
    ("linalg", "SparseRREF.add", "linalg.add"),
    ("linalg", "SparseRREF.reduce", "linalg.reduce"),
    ("linalg", "rref_rank", "linalg.kernel"),
    ("linalg", "kernel_basis", "linalg.kernel"),
    ("linalg", "sparse_rref_kernel", "linalg.kernel"),
    ("certified", "certified_kernel", "certified.certified_kernel"),
    ("certified", "verify_kernel_vector", "certified.certified_kernel"),
    ("certified", "modp_kernel", "certified.modp_kernel"),
    ("certified", "modp_rref", "certified.modp_kernel"),
    ("ideals", "DiIdeal.component", "ideals.component"),
    ("ideals", "DiIdeal.membership", "ideals.membership"),
    ("ideals", "ComponentBasis.basis_elements", "ideals.other"),
    ("ideals", "ComponentBasis.standard_monomials", "ideals.other"),
    ("ideals", "quotient_basis", "ideals.other"),
    ("plucker", "modp_self_join_upper", "plucker.pinch"),
    ("plucker", "exact_join_component", "plucker.join_component"),
    ("plucker", "evaluation_kernel", "plucker.evaluation_kernel"),
    ("plucker", "degree_probe", "plucker.other"),
    ("plucker", "plucker_ideal", "plucker.other"),
    ("plucker", "weyman_quadrics", "plucker.other"),
    ("plucker", "secant_ideal", "plucker.other"),
    ("plucker", "JoinIdeal.component", "plucker.other"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.main"),
    ("cli", "cmd_probe", "cli.main"),
    ("cli", "cmd_secant", "cli.main"),
)

# the op body itself: time in no library span is the benchmark's own glue
OP_LAYER = "bench.op"

# Per-layer metrics, in report order: (name, unit).  Self times are
# medians over the traced ops of a run; counts come from the first traced
# op, whose inputs depend only on the seed, so they repeat exactly.
PER_LAYER = (
    ("products.sym_star.calls", "count"),
    ("products.sym_star.self_s", "s"),
    ("products.sym_shuffle.calls", "count"),
    ("products.sym_shuffle.self_s", "s"),
    ("products.tensor.self_s", "s"),
    ("symmetry.maps.self_s", "s"),
    ("symmetry.delta.self_s", "s"),
    ("symmetry.pair.self_s", "s"),
    ("poset.rl_leq.calls", "count"),
    ("poset.rl_leq.self_s", "s"),
    ("poset.comparable_pairs", "count"),
    ("linalg.add.calls", "count"),
    ("linalg.add.accepted", "count"),
    ("linalg.add.accept_ratio", "ratio"),
    ("linalg.add.self_s", "s"),
    ("linalg.reduce.calls", "count"),
    ("linalg.reduce.self_s", "s"),
    ("linalg.kernel.self_s", "s"),
    ("linalg.basis_nonzeros", "count"),
    ("ideals.component.calls", "count"),
    ("ideals.component.self_s", "s"),
    ("ideals.cache_hit_ratio", "ratio"),
    ("ideals.cache_bytes_read", "bytes"),
    ("ideals.cache_bytes_written", "bytes"),
    ("ideals.membership.calls", "count"),
    ("ideals.membership.self_s", "s"),
    ("ideals.other.self_s", "s"),
    ("plucker.pinch.calls", "count"),
    ("plucker.pinch.self_s", "s"),
    ("plucker.pinched_rows", "count"),
    ("plucker.join_component.calls", "count"),
    ("plucker.join_component.self_s", "s"),
    ("plucker.evaluation_kernel.self_s", "s"),
    ("plucker.other.self_s", "s"),
    ("certified.certified_kernel.calls", "count"),
    ("certified.certified_kernel.self_s", "s"),
    ("certified.modp_kernel.calls", "count"),
    ("certified.modp_kernel.self_s", "s"),
    ("certified.verified_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("core.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("failed_ops_ratio", "ratio"),
)

# counts that must repeat exactly between two runs of the same code and seed
DETERMINISTIC = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "bytes") or name in (
                          "linalg.add.accept_ratio", "ideals.cache_hit_ratio",
                          "certified.verified_ratio"))

# metric name -> wrapped function whose calls it counts
CALL_COUNTS = {
    "products.sym_star.calls": "products.sym_star",
    "products.sym_shuffle.calls": "products.sym_shuffle",
    "poset.rl_leq.calls": "poset.rl_leq",
    "linalg.add.calls": "linalg.SparseRREF.add",
    "linalg.reduce.calls": "linalg.SparseRREF.reduce",
    "ideals.component.calls": "ideals.DiIdeal.component",
    "ideals.membership.calls": "ideals.DiIdeal.membership",
    "plucker.pinch.calls": "plucker.modp_self_join_upper",
    "plucker.join_component.calls": "plucker.exact_join_component",
    "certified.certified_kernel.calls": "certified.certified_kernel",
    "certified.modp_kernel.calls": "certified.modp_kernel",
}


def _file_state(directory) -> dict[str, tuple[int, int]]:
    if directory is None or not Path(directory).is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in Path(directory).iterdir() if p.is_file()}


class OpTrace:
    """What one traced op did: self seconds per layer, calls, counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.rrefs: dict[int, object] = {}        # SparseRREF objects added to
        self.cache_requests: dict[tuple, Path] = {}


class Tracer:
    """Installs the wrappers around one op at a time and restores afterwards."""

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._stack: list[float] = []
        self._trace: OpTrace | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks that turn results into counters -----------------------------

    def _on_result(self, func: str, args, result) -> None:
        tr = self._trace
        if func == "poset.rl_leq" and result is not None:
            tr.counts["poset.comparable_pairs"] += 1
        elif func == "linalg.SparseRREF.add":
            tr.rrefs[id(args[0])] = args[0]
            if result:
                tr.counts["linalg.add.accepted"] += 1
        elif func == "certified.verify_kernel_vector":
            tr.counts["certified.checked"] += 1
            if result:
                tr.counts["certified.verified"] += 1
        elif func == "ideals.DiIdeal.component":
            ideal, d, n = args[0], args[1], args[2]
            if ideal.cache_dir is not None:
                # the only private name read here: where the library keeps
                # a component on disk
                tr.cache_requests[(str(ideal.cache_dir), ideal.M, ideal.gen_hash, d, n)] = \
                    ideal._cache_path(d, n)

    def _wrap(self, func: str, layer: str, fn):
        tracer = self
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                tr = tracer._trace
                tr.self_s[layer] += dt - inner
                tr.calls[func] += 1
                stack[-1] += dt
            tracer._on_result(func, args, result)
            return result

        return span

    def _install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "shufflestar" or name.startswith("shufflestar.")]
        for modname, attr, layer in WRAPPED:
            module = importlib.import_module(f"shufflestar.{modname}")
            func = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(func, layer, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(func, layer, orig)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def run(self, op, cache_dir=None):
        """Run op() with every wrapper installed; returns (result, OpTrace)."""
        tr = OpTrace()
        before = _file_state(cache_dir)
        self._trace = tr
        self._stack = [0.0]
        self._install()
        try:
            result = self._wrap("bench.op", OP_LAYER, op)()
        finally:
            self._uninstall()
            self._trace = None
        after = _file_state(cache_dir)
        self._account_cache(tr, before, after)
        tr.counts["linalg.basis_nonzeros"] = sum(
            sum(len(row) for row in rref.rows) for rref in tr.rrefs.values())
        tr.rrefs.clear()
        return result, tr

    @staticmethod
    def _account_cache(tr: OpTrace, before: dict, after: dict) -> None:
        hits = 0
        for path in tr.cache_requests.values():
            state = before.get(path.name)
            if state is not None and after.get(path.name) == state:
                hits += 1
                tr.counts["ideals.cache_bytes_read"] += state[0]
        requested = len(tr.cache_requests)
        tr.counts["ideals.cache_requested"] = requested
        tr.counts["ideals.cache_hits"] = hits
        tr.counts["ideals.cache_bytes_written"] = sum(
            size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def layer_metrics(traces: list[OpTrace], scale: float, overhead: float,
                  report_bytes: int, pinched_rows: int, failed_ratio: float) -> dict[str, float]:
    """Per-layer metric values from the traced ops of one run.

    Self times are rescaled to the nominal machine speed by `scale`.
    """
    first = traces[0]
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            out[name] = median(t.self_s.get(layer, 0.0) for t in traces) * scale
        elif name in CALL_COUNTS:
            out[name] = first.calls[CALL_COUNTS[name]]
    c = first.counts
    calls = first.calls
    out["poset.comparable_pairs"] = c["poset.comparable_pairs"]
    out["linalg.add.accepted"] = c["linalg.add.accepted"]
    adds = calls["linalg.SparseRREF.add"]
    out["linalg.add.accept_ratio"] = c["linalg.add.accepted"] / adds if adds else 0.0
    out["linalg.basis_nonzeros"] = c["linalg.basis_nonzeros"]
    requested = c["ideals.cache_requested"]
    out["ideals.cache_hit_ratio"] = c["ideals.cache_hits"] / requested if requested else 0.0
    out["ideals.cache_bytes_read"] = c["ideals.cache_bytes_read"]
    out["ideals.cache_bytes_written"] = c["ideals.cache_bytes_written"]
    out["plucker.pinched_rows"] = pinched_rows
    checked = c["certified.checked"]
    out["certified.verified_ratio"] = c["certified.verified"] / checked if checked else 0.0
    out["cli.report_bytes"] = report_bytes
    out["trace_overhead_ratio"] = overhead
    out["failed_ops_ratio"] = failed_ratio
    return out
