"""Outside-in spans around the public functions of the nilpoisson modules.

The tracer wraps each target function at every place it is bound: the
defining module, every ``nilpoisson`` module that imported it by name,
and the class for methods.  Calls that import at call time (such as
``OperatorMatrix.rank`` reading ``sparse.rank``) see the wrapper too.
A target a later version of the program no longer has is skipped, so
its metrics read zero.

Each span records its name, start, end, parent span, job id and whether
it raised.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "nilpoisson"


def _operator_kind(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs.get("kind")
    return kind if kind in ("dbar", "ad") else "other"


def _rank_route(args, kwargs) -> str:
    matrix = args[0] if args else kwargs.get("matrix")
    cutoff = getattr(sys.modules.get(f"{PACKAGE}.sparse"), "DENSE_CUTOFF", None)
    rows, cols = getattr(matrix, "rows", None), getattr(matrix, "cols", None)
    if isinstance(cutoff, int) and isinstance(rows, int) and isinstance(cols, int) \
            and rows < cutoff and cols < cutoff:
        return "dense"
    return "sparse"


@dataclass(frozen=True)
class Target:
    name: str                      # metric prefix: <layer>.<function>
    module: str                    # defining module, relative to the package
    attribute: str                 # "function" or "Class.method"
    splits: Tuple[str, ...] = ()   # sub-span suffixes chosen by `route`
    route: Optional[Callable] = None
    outside_only: bool = False     # skip calls made from inside the same module
    errors: bool = False           # report .errors (functions on input-error paths)

    def span_names(self) -> Tuple[str, ...]:
        return tuple(f"{self.name}.{s}" for s in self.splits) or (self.name,)


TARGETS: Tuple[Target, ...] = (
    Target("catalog.parse_catalog_name", "catalog", "parse_catalog_name", errors=True),
    Target("catalog.parse_spec", "catalog", "parse_spec", errors=True),
    Target("catalog.emit_spec", "catalog", "emit_spec"),
    Target("expressions.parse_multivector", "expressions", "parse_multivector", errors=True),
    Target("expressions.format_multivector", "expressions", "format_multivector"),
    Target("algebra.validate", "algebra", "validate", errors=True),
    Target("exterior.basis", "exterior", "ExteriorComplex.basis"),
    Target("exterior.basis_index", "exterior", "ExteriorComplex.basis_index"),
    Target("exterior.operator_block", "exterior", "ExteriorComplex.operator_block",
           splits=("dbar", "ad"), route=_operator_kind),
    Target("exterior.validate_poisson", "exterior", "ExteriorComplex.validate_poisson",
           errors=True),
    Target("exterior.schouten", "exterior", "ExteriorComplex.schouten", outside_only=True),
    Target("exterior.dbar", "exterior", "ExteriorComplex.dbar", outside_only=True),
    Target("cohomology.total_operator", "cohomology", "total_operator"),
    Target("sparse.rank", "sparse", "rank", splits=("dense", "sparse"), route=_rank_route),
    Target("sparse.kernel_vectors", "sparse", "kernel_vectors"),
    Target("sparse.solve", "sparse", "solve"),
    Target("sparse.matmul", "sparse", "SparseMatrix.__matmul__"),
    Target("cohomology.analyze", "cohomology", "analyze", errors=True),
    Target("cohomology.dolbeault_dims", "cohomology", "dolbeault_dims"),
    Target("cohomology.total_cohomology", "cohomology", "total_cohomology"),
    Target("cohomology.first_page", "cohomology", "first_page"),
    Target("cohomology.hodge_verdict", "cohomology", "hodge_verdict"),
    Target("cohomology.obstruction", "cohomology", "obstruction", errors=True),
    Target("cohomology.deformed_complex", "cohomology", "deformed_complex", errors=True),
    Target("cli.main", "cli", "main"),
    Target("cli.to_json_dict", "cohomology", "CohomologyReport.to_json_dict"),
    Target("cli.print_json", "cli", "_print_json"),
    Target("cli.print_report", "cli", "_print_report"),
)

ROOT_SPAN = "cli.main"

# Counters measured at the span boundaries, beside calls, self time and errors.
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("exterior.basis.monomials", "count"),
    ("exterior.operator_block.built", "count"),
    ("exterior.operator_block.memo_hit_ratio", "ratio"),
    ("exterior.operator_block.nnz", "count"),
    ("cohomology.total_operator.nnz", "count"),
    ("sparse.rank.nnz_in", "count"),
    ("sparse.rank.rank_out", "count"),
    ("sparse.kernel_vectors.vectors_out", "count"),
)

# Filled in by the worker: root-span time over job wall time, and traced
# pass time over the untraced pass just before it.
TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.span_coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def layer_metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out: List[Tuple[str, str]] = []
    for target in TARGETS:
        for span in target.span_names():
            out.append((f"{span}.calls", "count"))
            out.append((f"{span}.self_s", "s"))
            if target.errors:
                out.append((f"{span}.errors", "count"))
    out.extend(EXTRA_METRICS)
    out.extend(TRACE_METRICS)
    return out


def _nnz(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)
    if callable(nnz):
        return nnz()
    return len(getattr(matrix, "entries", ()) or ())


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it."""

    def __init__(self):
        self.spans: List[tuple] = []   # (id, parent, name, job, start, end, raised)
        self._stack: List[list] = []   # open spans: [id, module, start, child_time]
        self._patches: List[Tuple[object, str, object]] = []
        self.job = None
        self.reset_pass()

    # -- per-pass aggregates ---------------------------------------------------

    def reset_pass(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self.counters: Dict[str, float] = {name: 0 for name, _ in EXTRA_METRICS}
        self.root_s = 0.0
        self._memo_calls = 0
        self._seen_bases = set()
        self._seen_blocks: Dict[int, object] = {}

    def start_job(self, job_id) -> None:
        self.job = job_id
        self._seen_bases = set()
        self._seen_blocks = {}   # strong references, so ids stay unique within a job

    def pass_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, _ in layer_metric_units():
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls.get(span, 0)
            elif kind == "self_s":
                out[name] = self.self_s.get(span, 0.0)
            elif kind == "errors":
                out[name] = self.errors.get(span, 0)
        out.update(self.counters)
        calls = self._memo_calls
        built = self.counters["exterior.operator_block.built"]
        out["exterior.operator_block.memo_hit_ratio"] = (calls - built) / calls if calls else 0.0
        return out

    # -- counters at span boundaries ---------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        c = self.counters
        if name == "exterior.basis" and len(args) >= 3:
            key = (id(args[0]), args[1], args[2])
            if key not in self._seen_bases:
                self._seen_bases.add(key)
                c["exterior.basis.monomials"] += len(result)
        elif name.startswith("exterior.operator_block."):
            self._memo_calls += 1
            if self._seen_blocks.get(id(result)) is not result:
                self._seen_blocks[id(result)] = result
                c["exterior.operator_block.built"] += 1
                c["exterior.operator_block.nnz"] += _nnz(getattr(result, "matrix", None))
        elif name == "cohomology.total_operator":
            c["cohomology.total_operator.nnz"] += _nnz(result)
        elif name.startswith("sparse.rank."):
            c["sparse.rank.nnz_in"] += _nnz(args[0] if args else None)
            c["sparse.rank.rank_out"] += result
        elif name == "sparse.kernel_vectors":
            c["sparse.kernel_vectors.vectors_out"] += len(result)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        tracer = self
        module = target.module

        def traced(*args, **kwargs):
            stack = tracer._stack
            if target.outside_only and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            name = (f"{target.name}.{target.route(args, kwargs)}" if target.route
                    else target.name)
            parent = stack[-1][0] if stack else None
            frame = [len(tracer.spans) + len(stack), module, time.perf_counter(), 0.0]
            stack.append(frame)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[3]
                if raised:
                    tracer.errors[name] = tracer.errors.get(name, 0) + 1
                if stack:
                    stack[-1][3] += duration
                if name == ROOT_SPAN:
                    tracer.root_s += duration
                tracer.spans.append((frame[0], parent, name, tracer.job, frame[2], end, raised))
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    def install(self, targets: Tuple[Target, ...] = TARGETS) -> List[str]:
        """Patch every binding site of every target; returns the targets found."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        found = []
        for target in targets:
            owner = sys.modules.get(f"{PACKAGE}.{target.module}")
            class_name, _, attr = target.attribute.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if not callable(original):
                continue
            wrapper = self._wrap(target, original)
            found.append(target.name)
            if class_name:
                self._patch(owner, attr, wrapper, original)
                continue
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, wrapper, original)
        return found

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
