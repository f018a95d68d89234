"""AST-based determinism lint over the simulator's own source.

The repo's core contract — bit-identical results across serial/parallel
execution, checkpoint/resume replay and the content-addressed run cache —
rests on the source never consulting anything outside the simulation
state.  This pass finds the usual ways that contract breaks *before* a
run does, by walking each module's AST with a small set of rules:

``unseeded-random`` (error)
    Module-level ``random`` / ``numpy.random`` functions draw from
    process-global RNG state; ``random.Random()`` / ``default_rng()``
    without a seed draw from the OS.  Simulation code must use a seeded
    instance owned by the configuration.
``wall-clock`` (error)
    ``time.time()`` / ``time.perf_counter()`` / ``datetime.now()`` etc.
    read the host clock; any simulation decision based on them differs
    run to run.  (Wall-clock profiling is fine — in the profiling module,
    under an explicit suppression.)
``unordered-iteration`` (error)
    Iterating a ``set`` / ``frozenset`` in an order-sensitive position
    (``for`` loops, ``list()`` / ``enumerate()`` / ``"".join()``,
    list/dict comprehensions, ``set.pop()``).  Set iteration order
    depends on ``PYTHONHASHSEED`` for str keys and on allocation history
    in general; feeding it into event scheduling or stats corrupts
    determinism silently.  Order-insensitive consumers (``sorted``,
    ``len``, ``sum``, ``min``/``max``, ``any``/``all``, set algebra) are
    allowed.
``id-ordering`` (error)
    Sorting or comparing by ``id()`` orders objects by allocation
    address — different every process.  (Using ``id()`` as an identity
    *key* is fine; ordering by it is not.)
``float-accumulation`` (warning)
    ``+=`` of cycle/delay quantities in loops or stats attributes is
    order-sensitive in the last ulp; when the accumulation order can be
    perturbed (parallel delivery, schedule ties), sums diverge.  Collect
    values (compacted exactly, see ``PhaseStats.compact_values``) and
    reduce with ``math.fsum`` on read (exact, order-independent).
``mutable-default-arg`` (error)
    A mutable default is shared across calls — state leaks between
    supposedly independent simulations.
``unused-suppression`` (warning)
    A ``det: allow[...]`` comment whose rule no longer fires on that
    line; stale suppressions hide future regressions.

Suppression syntax (checked, see ``unused-suppression``)::

    x = time.perf_counter()  # det: allow[wall-clock] profiling only
    # det: allow[unordered-iteration] order reduced with fsum below
    total = fsum(v for v in values)

    # det: allow-file[wall-clock] this module measures host time

A comment suppresses the named rule(s) on its own line or, for a
comment-only line, on the line directly below.  ``allow-file`` applies
to the whole file.  Findings flow through the standard
:mod:`repro.sanitize.findings` machinery and surface via
``astra-repro analyze --source`` (docs/DETERMINISM.md).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ConfigError
from repro.sanitize.findings import Finding, LintReport, Severity

#: All rule codes this pass can emit, in catalog order.
RULE_CODES = (
    "unseeded-random",
    "wall-clock",
    "unordered-iteration",
    "id-ordering",
    "float-accumulation",
    "mutable-default-arg",
    "unused-suppression",
    "syntax-error",
)

_SEVERITIES = {
    "unseeded-random": Severity.ERROR,
    "wall-clock": Severity.ERROR,
    "unordered-iteration": Severity.ERROR,
    "id-ordering": Severity.ERROR,
    "float-accumulation": Severity.WARNING,
    "mutable-default-arg": Severity.ERROR,
    "unused-suppression": Severity.WARNING,
    "syntax-error": Severity.ERROR,
}

#: ``random`` module functions that draw from the process-global stream.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "getrandbits", "randbytes", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "binomialvariate", "seed",
}

#: ``numpy.random`` names that are fine to *call* (constructors that take
#: an explicit seed; seeding is checked separately at the call site).
_NUMPY_SEEDED_CTORS = {"default_rng", "Generator", "RandomState",
                      "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64"}

#: Host-clock reads, as resolved dotted names.
_WALL_CLOCK_FNS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Builtins whose consumption of an iterable is order-insensitive.
_ORDER_INSENSITIVE = {"sorted", "len", "sum", "min", "max", "any", "all",
                      "set", "frozenset", "bool"}

#: Callables that materialize or expose iteration order.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed",
                          "next", "zip", "map", "filter"}

#: Set methods returning another set (algebra — order never escapes).
_SET_ALGEBRA_METHODS = {"union", "intersection", "difference",
                        "symmetric_difference", "copy"}

#: Name tokens that mark a quantity as simulated-time arithmetic.
_TIME_TOKENS = {"cycle", "cycles", "time", "delay", "delays", "latency",
                "latencies", "busy"}

_ALLOW_RE = re.compile(r"#\s*det:\s*allow\[([^\]]*)\]")
_ALLOW_FILE_RE = re.compile(r"#\s*det:\s*allow-file\[([^\]]*)\]")


@dataclass
class _Suppression:
    """One ``det: allow[...]`` comment."""

    line: int
    codes: tuple[str, ...]
    file_level: bool = False
    comment_only: bool = False
    used: bool = False


def _parse_codes(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _collect_suppressions(text: str) -> list[_Suppression]:
    """Find ``det: allow`` markers in *real* comments only.

    Tokenizing (rather than regexing raw lines) keeps suppression examples
    inside docstrings — like the ones in this module's own docstring —
    from registering as live suppressions.
    """
    out: list[_Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line_no = tok.start[0]
            m = _ALLOW_FILE_RE.search(tok.string)
            if m:
                out.append(_Suppression(line=line_no,
                                        codes=_parse_codes(m.group(1)),
                                        file_level=True))
                continue
            m = _ALLOW_RE.search(tok.string)
            if m:
                comment_only = tok.line.lstrip().startswith("#")
                out.append(_Suppression(line=line_no,
                                        codes=_parse_codes(m.group(1)),
                                        comment_only=comment_only))
    except tokenize.TokenError:  # pragma: no cover - parse already failed
        pass
    return out


class _Suppressions:
    """Line- and file-scoped suppressions with usage tracking."""

    def __init__(self, text: str):
        self._all = _collect_suppressions(text)
        self._by_line: dict[int, list[_Suppression]] = {}
        self._file_level: list[_Suppression] = []
        for sup in self._all:
            if sup.file_level:
                self._file_level.append(sup)
            else:
                self._by_line.setdefault(sup.line, []).append(sup)
                if sup.comment_only:
                    # A comment-only line guards the line below it.
                    self._by_line.setdefault(sup.line + 1, []).append(sup)

    def suppresses(self, code: str, line: int) -> bool:
        for sup in self._file_level:
            if code in sup.codes:
                sup.used = True
                return True
        for sup in self._by_line.get(line, ()):
            if code in sup.codes:
                sup.used = True
                return True
        return False

    def unused(self) -> list[_Suppression]:
        return [sup for sup in self._all if not sup.used]


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    """Whether an annotation expression denotes a set type."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Attribute):  # typing.Set[...]
        return node.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _is_set_annotation(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return False
    return False


def _name_tokens(name: str) -> set[str]:
    return set(name.lower().split("_"))


class _DeterminismVisitor(ast.NodeVisitor):
    """One pass over a module AST, emitting determinism findings."""

    def __init__(self, report: LintReport, suppressions: _Suppressions,
                 text: str, ignore: frozenset[str]):
        self.report = report
        self.suppressions = suppressions
        self.text = text
        self.ignore = ignore
        #: local import alias -> canonical dotted module/name prefix.
        self.aliases: dict[str, str] = {}
        #: attribute names assigned/annotated as sets anywhere in the file.
        self.set_attrs: set[str] = set()
        #: stack of per-scope sets of set-typed local names.
        self.scopes: list[set[str]] = [set()]
        self.loop_depth = 0

    # -- emission ------------------------------------------------------------

    def emit(self, code: str, node: ast.AST, message: str) -> None:
        if code in self.ignore:
            return
        line = getattr(node, "lineno", 0)
        if self.suppressions.suppresses(code, line):
            return
        snippet = ast.get_source_segment(self.text, node) or ""
        snippet = snippet.splitlines()[0].strip() if snippet else ""
        if snippet:
            message = f"{message} [`{snippet}`]"
        self.report.add(_SEVERITIES[code], code, f"L{line}", message, line=line)

    # -- import tracking -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0])
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            module = "numpy.random" if node.module == "numpy.random" else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
        self.generic_visit(node)

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Resolve ``np.random.rand`` through import aliases to
        ``numpy.random.rand``; None when the root is not a plain name."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        # Normalize `numpy` to the canonical prefix for matching.
        return ".".join(reversed(parts))

    # -- scope handling ------------------------------------------------------

    def _prescan_scope(self, body: list[ast.stmt]) -> set[str]:
        """Flow-insensitive pass: local names that ever hold a set and are
        never rebound to an explicitly-ordered value."""
        set_names: set[str] = set()
        ordered_names: set[str] = set()

        class _Scan(ast.NodeVisitor):
            def visit_FunctionDef(self, _n):  # don't descend into nested scopes
                return

            visit_AsyncFunctionDef = visit_FunctionDef
            visit_Lambda = visit_FunctionDef
            visit_ClassDef = visit_FunctionDef

            def visit_Assign(inner, n: ast.Assign) -> None:
                for target in n.targets:
                    if isinstance(target, ast.Name):
                        if self._is_set_expr(n.value, set_names):
                            set_names.add(target.id)
                        else:
                            ordered_names.add(target.id)
                inner.generic_visit(n)

            def visit_AnnAssign(inner, n: ast.AnnAssign) -> None:
                if isinstance(n.target, ast.Name) and _is_set_annotation(n.annotation):
                    set_names.add(n.target.id)
                inner.generic_visit(n)

        scan = _Scan()
        for stmt in body:
            scan.visit(stmt)
        return set_names - ordered_names

    def _collect_set_attrs(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
                if _is_set_annotation(node.annotation):
                    self.set_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            self._is_set_expr(node.value, set()):
                        self.set_attrs.add(target.attr)

    # -- set-expression inference --------------------------------------------

    def _is_set_expr(self, node: ast.expr, local_sets: Optional[set[str]] = None) -> bool:
        if local_sets is None:
            local_sets = self.scopes[-1]
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _SET_ALGEBRA_METHODS and \
                    self._is_set_expr(node.func.value, local_sets):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)):
            return (self._is_set_expr(node.left, local_sets)
                    or self._is_set_expr(node.right, local_sets))
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        return False

    def _flag_if_set_iter(self, node: ast.expr, context: str) -> None:
        if self._is_set_expr(node):
            self.emit(
                "unordered-iteration", node,
                f"set iteration order is not deterministic ({context}); "
                f"wrap in sorted(...) or restructure")

    # -- rule visitors -------------------------------------------------------

    def visit_FunctionDef(self, node) -> None:
        self._check_defaults(node)
        self.scopes.append(self._prescan_scope(node.body))
        outer_loops, self.loop_depth = self.loop_depth, 0
        self.generic_visit(node)
        self.loop_depth = outer_loops
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp, ast.SetComp))
            if not mutable and isinstance(default, ast.Call) and \
                    isinstance(default.func, ast.Name) and \
                    default.func.id in ("list", "dict", "set", "defaultdict",
                                        "deque", "bytearray", "Counter"):
                mutable = True
            if mutable:
                self.emit(
                    "mutable-default-arg", default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside")

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_set_iter(node.iter, "for loop")
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def _visit_comprehension(self, node, kind: str) -> None:
        for comp in node.generators:
            self._flag_if_set_iter(comp.iter, kind)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order follows iteration order, and later dict
        # iteration exposes it — a set-fed DictComp is an ordered sink.
        self._visit_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # Only flag generators whose consumer is order-sensitive; the
        # consumer call site (visit_Call) decides.  Still flag nested
        # generators conservatively when fed straight into a for loop via
        # the comprehension's own iteration.
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # set -> set: order never escapes.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._check_random(dotted, node)
            self._check_wall_clock(dotted, node)
        self._check_order_sensitive_call(node)
        self._check_id_sort_key(node)
        self.generic_visit(node)

    def _check_random(self, dotted: str, node: ast.Call) -> None:
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            fn = parts[1]
            if fn in _GLOBAL_RANDOM_FNS:
                self.emit(
                    "unseeded-random", node,
                    f"random.{fn}() draws from process-global RNG state; "
                    f"use a seeded random.Random(seed) owned by the config")
            elif fn in ("Random", "SystemRandom") and not node.args and not node.keywords:
                self.emit(
                    "unseeded-random", node,
                    f"random.{fn}() without a seed is nondeterministic; "
                    f"pass an explicit seed")
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            fn = parts[2]
            if fn not in _NUMPY_SEEDED_CTORS:
                self.emit(
                    "unseeded-random", node,
                    f"numpy.random.{fn}() uses numpy's global RNG state; "
                    f"use numpy.random.default_rng(seed)")
            elif not node.args and not node.keywords:
                self.emit(
                    "unseeded-random", node,
                    f"numpy.random.{fn}() without a seed is entropy-seeded; "
                    f"pass an explicit seed")

    def _check_wall_clock(self, dotted: str, node: ast.Call) -> None:
        if dotted in _WALL_CLOCK_FNS:
            self.emit(
                "wall-clock", node,
                f"{dotted}() reads the host clock; simulation logic must "
                f"use simulated time (EventQueue.now)")

    def _check_order_sensitive_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            for arg in node.args:
                inner = arg
                if isinstance(inner, ast.GeneratorExp):
                    for comp in inner.generators:
                        self._flag_if_set_iter(comp.iter, f"{func.id}() argument")
                    continue
                if self._is_set_expr(inner):
                    self._flag_if_set_iter(inner, f"{func.id}() argument")
        elif isinstance(func, ast.Attribute):
            if func.attr == "join":
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        for comp in arg.generators:
                            self._flag_if_set_iter(comp.iter, "str.join() argument")
                    elif self._is_set_expr(arg):
                        self._flag_if_set_iter(arg, "str.join() argument")
            elif func.attr == "pop" and not node.args and \
                    self._is_set_expr(func.value):
                self.emit(
                    "unordered-iteration", node,
                    "set.pop() removes an arbitrary element; pop from a "
                    "sorted or explicitly-ordered structure")

    def _check_id_sort_key(self, node: ast.Call) -> None:
        is_sorter = (
            (isinstance(node.func, ast.Name) and node.func.id in
             ("sorted", "min", "max"))
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        )
        if not is_sorter:
            return
        for kw in node.keywords:
            if kw.arg != "key" or kw.value is None:
                continue
            value = kw.value
            if isinstance(value, ast.Name) and value.id == "id":
                self.emit(
                    "id-ordering", node,
                    "sorting by id() orders objects by allocation address "
                    "(different every process); sort by a semantic key")
            elif isinstance(value, ast.Lambda):
                for sub in ast.walk(value.body):
                    if isinstance(sub, ast.Call) and \
                            isinstance(sub.func, ast.Name) and sub.func.id == "id":
                        self.emit(
                            "id-ordering", node,
                            "sort key uses id(); allocation addresses are "
                            "not reproducible across processes")
                        break

    def visit_FormattedValue(self, node: ast.FormattedValue) -> None:
        # f"{some_set}" stringifies in iteration order — nondeterministic
        # text in error messages and reports.
        if self._is_set_expr(node.value):
            self.emit(
                "unordered-iteration", node.value,
                "formatting a set renders it in iteration order; format "
                "sorted(...) instead")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        ordering = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                       for op in node.ops)
        if ordering:
            for operand in operands:
                if isinstance(operand, ast.Call) and \
                        isinstance(operand.func, ast.Name) and \
                        operand.func.id == "id" and len(operand.args) == 1:
                    self.emit(
                        "id-ordering", node,
                        "comparing id() values orders by allocation address; "
                        "compare a semantic key instead")
                    break
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            target = node.target
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and (_name_tokens(name) & _TIME_TOKENS):
                stats_like = isinstance(target, ast.Attribute) and \
                    name.endswith(("cycles", "delays", "_total"))
                if self.loop_depth > 0 or stats_like:
                    self.emit(
                        "float-accumulation", node,
                        f"incremental float accumulation into {name!r} is "
                        f"order-sensitive in the last ulp; collect values "
                        f"(exact compaction) and reduce with math.fsum on read")
        self.generic_visit(node)

    # -- entry ---------------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        self._collect_set_attrs(tree)
        self.scopes = [self._prescan_scope(tree.body)]
        self.visit(tree)
        for sup in self.suppressions.unused():
            if "unused-suppression" in self.ignore:
                continue
            codes = ",".join(sup.codes)
            self.report.add(
                _SEVERITIES["unused-suppression"], "unused-suppression",
                f"L{sup.line}",
                f"det: allow[{codes}] suppresses nothing here; remove the "
                f"stale comment", line=sup.line)


def lint_source_text(text: str, source: str = "<string>",
                     ignore: Iterable[str] = ()) -> LintReport:
    """Lint one module's source text; findings sorted most-severe first."""
    report = LintReport(source=source)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        report.add(Severity.ERROR, "syntax-error", f"L{exc.lineno or 0}",
                   f"cannot parse: {exc.msg}", line=exc.lineno or 0)
        return report
    suppressions = _Suppressions(text)
    visitor = _DeterminismVisitor(report, suppressions, text,
                                  frozenset(ignore))
    visitor.run(tree)
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_source_file(path: str, root: Optional[str] = None,
                     ignore: Iterable[str] = ()) -> LintReport:
    """Lint one ``.py`` file; ``root`` relativizes the report's source."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    source = os.path.relpath(path, root) if root else path
    return lint_source_text(text, source=source, ignore=ignore)


def iter_python_files(root: str) -> list[str]:
    """All ``.py`` files under ``root``, in sorted (deterministic) order."""
    if os.path.isfile(root):
        return [root]
    out: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                out.append(os.path.join(dirpath, name))
    return out


def lint_source_tree(root: str, ignore: Iterable[str] = ()) -> list[LintReport]:
    """Lint every Python file under ``root``; one report per file, in
    sorted path order.  ``root`` may also be a single file.

    A missing ``root`` raises :class:`~repro.errors.ConfigError` (usage
    error, CLI exit 2) rather than silently reporting a clean empty tree.
    """
    if not os.path.exists(root):
        raise ConfigError(f"source lint root does not exist: {root!r}")
    base = root if os.path.isdir(root) else os.path.dirname(root) or "."
    return [lint_source_file(path, root=base, ignore=ignore)
            for path in iter_python_files(root)]


def default_source_root() -> str:
    """The installed ``repro`` package directory — what
    ``astra-repro analyze --source`` lints when no path is given."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))
