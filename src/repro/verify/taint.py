"""Taint lattice and transfer rules for the determinism flow analysis.

Every guarantee downstream of the simulator — byte-identical bus
recordings, bit-equivalent shard merges, replayable breaker state —
reduces to one code property: *nondeterminism enters only through
seeded keyed draws*.  This module classifies how values move through
the call graph:

``PURE``
    Deterministic given the program's explicit inputs.

``KEYED``
    Stochastic but derived from a seeded keyed draw
    (``keyed_uniform``/``keyed_uniforms``, ``PairwiseDrawSource``,
    the ``sim.rng`` registry) — reproducible by construction.

``TAINTED``
    Depends on an out-of-band input: wall clock, the global RNG,
    process identity (`os.getpid`/`os.urandom`/`uuid4`), environment
    reads, module-global ``itertools.count`` counters (whose values
    depend on what else ran in the process), or hash-order iteration
    of an unordered ``set`` feeding ordered output.

Each function gets a :class:`FunctionSummary` from an intraprocedural
walk of its body; an interprocedural fixpoint then propagates taint
through returns, arguments, ``self`` attributes, and container stores
until nothing changes.  Summaries carry a provenance chain — the exact
``caller → callee → … → source()`` path — so a finding can print where
the nondeterminism *entered*, not just where it surfaced.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.verify.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _infer_local_types,
)
from repro.verify.resolver import (
    GLOBAL_RNG_PREFIXES,
    PROCESS_IDENTITY,
    WALL_CLOCK,
    dotted_name,
    names,
)

__all__ = [
    "FunctionSummary",
    "Taint",
    "TaintAnalyzer",
    "TaintValue",
    "TraceStep",
]


class Taint(enum.IntEnum):
    """The three-point lattice; ``join`` is ``max``."""

    PURE = 0
    KEYED = 1
    TAINTED = 2


@dataclass(frozen=True)
class TraceStep:
    """One hop of a provenance chain."""

    function: str                 # display label of the function
    path: str
    lineno: int
    note: str

    def format(self) -> str:
        return f"{self.path}:{self.lineno}: {self.note}"


@dataclass(frozen=True)
class TaintValue:
    """A lattice point plus where it came from.

    ``kind`` names the source family (``wall-clock``,
    ``unseeded-random``, ``process-identity``, ``env-read``,
    ``unordered-iteration``, ``keyed``); the chain walks from the
    consuming function down to the source call.
    """

    taint: Taint = Taint.PURE
    kind: str = ""
    chain: Tuple[TraceStep, ...] = ()

    @staticmethod
    def pure() -> "TaintValue":
        return _PURE

    def join(self, other: "TaintValue") -> "TaintValue":
        if other.taint > self.taint:
            return other
        if other.taint == self.taint and not self.chain and other.chain:
            return other
        return self

    def with_step(self, step: TraceStep) -> "TaintValue":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return replace(self, chain=(step,) + self.chain)


_PURE = TaintValue()
_MAX_CHAIN = 16


def join_all(values: Sequence[TaintValue]) -> TaintValue:
    result = _PURE
    for value in values:
        result = result.join(value)
    return result


#: The taint catalogue.  Names are *canonical* (post
#: :class:`~repro.verify.resolver.ImportTable` resolution) and match by
#: :func:`~repro.verify.resolver.names`, so one entry covers
#: ``repro.sim.rng`` and a test fixture's ``pkg.sim.rng``.  The source
#: families the lint also polices are the catalogue in
#: :mod:`repro.verify.resolver`.
ENV_READS = ("os.getenv", "os.environ.get")
ENV_OBJECTS = ("os.environ",)
#: Dotted suffixes whose call results are keyed-deterministic.
KEYED_SUFFIXES = (
    "network.draws.keyed_uniform",
    "network.draws.keyed_uniforms",
    "network.draws.PairwiseDrawSource.uniforms",
    "sim.rng.derive_seed",
    "sim.rng.RngRegistry.stream",
    "sim.rng.RngRegistry.fork",
)
#: Module suffixes that *mint* keyed randomness: their functions return
#: KEYED, and global-RNG machinery inside them is the sanctioned
#: implementation, not a source.
KEYED_MODULE_SUFFIXES = ("sim.rng", "network.draws")
#: Calls that erase unordered-iteration taint (and only that kind):
#: explicit ordering plus order-insensitive aggregators.
ORDER_SANITIZERS = (
    "sorted", "sum", "len", "min", "max", "any", "all", "frozenset",
)
#: Module-level factories whose values advance with process history:
#: ``next()`` on one is out-of-band nondeterminism.
GLOBAL_COUNTER_FACTORIES = ("itertools.count",)
#: Fixpoint rounds before the analysis stops iterating.
MAX_ROUNDS = 12


def source_kind(target: str) -> Optional[str]:
    """The source family of a canonical call target, if any."""
    if names(target, WALL_CLOCK):
        return "wall-clock"
    if any(target.startswith(p) for p in GLOBAL_RNG_PREFIXES):
        return "unseeded-random"
    if names(target, PROCESS_IDENTITY):
        return "process-identity"
    if target in ENV_READS:
        return "env-read"
    return None


def module_is_keyed(module: str) -> bool:
    """Whether ``module`` is a keyed-randomness mint."""
    return names(module, KEYED_MODULE_SUFFIXES)


@dataclass
class FunctionSummary:
    """What flows out of one function."""

    fid: str
    returns: TaintValue = field(default_factory=TaintValue.pure)
    #: Taint this function writes into ``self`` attributes, parameter
    #: containers, or globals (its *state* effect).
    state: TaintValue = field(default_factory=TaintValue.pure)
    #: Direct source calls in the body: (kind, target, lineno).
    sources: List[Tuple[str, str, int]] = field(default_factory=list)

    def key(self) -> Tuple[int, int, int]:
        """The fixpoint-comparison key (chains excluded)."""
        return (int(self.returns.taint), int(self.state.taint),
                len(self.sources))


class TaintAnalyzer:
    """Runs the interprocedural fixpoint over a built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, FunctionSummary] = {}
        #: Class-attribute taint: ``(canonical class, attr) -> value``.
        self.attr_taint: Dict[Tuple[str, str], TaintValue] = {}
        #: Module -> names bound at module level to a global counter
        #: (``_counter = itertools.count()``).
        self.module_counters: Dict[str, Dict[str, int]] = {}

    # -- driver ---------------------------------------------------------

    def analyze(self) -> Dict[str, FunctionSummary]:
        """Iterate per-function walks until summaries stabilize."""
        self._scan_module_counters()
        self._seed_class_defaults()
        order = sorted(self.graph.functions)
        for fid in order:
            self.summaries[fid] = FunctionSummary(fid=fid)
        for _ in range(MAX_ROUNDS):
            changed = False
            for fid in order:
                info = self.graph.functions[fid]
                before = self.summaries[fid].key()
                attr_before = len(self.attr_taint)
                self.summaries[fid] = self._analyze_function(info)
                if self.summaries[fid].key() != before:
                    changed = True
                if len(self.attr_taint) != attr_before:
                    changed = True
            if not changed:
                break
        return self.summaries

    def summary_of(self, fid: str) -> FunctionSummary:
        return self.summaries.get(fid, FunctionSummary(fid=fid))

    # -- pre-passes -----------------------------------------------------

    def _scan_module_counters(self) -> None:
        """Find ``name = itertools.count(...)`` at module level."""
        for module in self.graph.modules.values():
            counters: Dict[str, int] = {}
            for stmt in getattr(module.tree, "body", []):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                spelled = dotted_name(stmt.value.func)
                if spelled is None:
                    continue
                canonical = module.imports.resolve(spelled)
                if canonical not in GLOBAL_COUNTER_FACTORIES:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        counters[target.id] = stmt.lineno
            if counters:
                self.module_counters[module.name] = counters

    def _seed_class_defaults(self) -> None:
        """Taint class attributes whose *defaults* draw from a source.

        ``fault_id: int = field(default_factory=lambda:
        next(_counter))`` taints ``(Class, fault_id)`` before the
        fixpoint: the nondeterminism enters at construction, so every
        later read of the attribute carries it.
        """
        for module in self.graph.modules.values():
            if module_is_keyed(module.name):
                continue
            for stmt in getattr(module.tree, "body", []):
                if not isinstance(stmt, ast.ClassDef):
                    continue
                canonical = f"{module.name}.{stmt.name}"
                for item in stmt.body:
                    attr, value_node = _class_field(item)
                    if attr is None or value_node is None:
                        continue
                    value = self._eval_default(module, value_node)
                    if value.taint is Taint.TAINTED:
                        self.attr_taint[(canonical, attr)] = value

    def _eval_default(
        self, module: ModuleInfo, node: ast.AST
    ) -> TaintValue:
        """Taint of a class-attribute default expression."""
        if isinstance(node, ast.Lambda):
            return self._eval_default(module, node.body)
        if isinstance(node, ast.Call):
            spelled = dotted_name(node.func)
            canonical = module.imports.resolve(spelled) if spelled \
                else None
            if canonical == "dataclasses.field" or spelled == "field":
                values = [
                    self._eval_default(module, keyword.value)
                    for keyword in node.keywords
                    if keyword.arg in ("default", "default_factory")
                ]
                return join_all(values)
            counter = self._counter_read(module.name, node)
            if counter is not None:
                name, lineno = counter
                step = TraceStep(
                    f"{module.name}.<class default>", module.path,
                    node.lineno,
                    f"dataclass default draws next({name}) from a "
                    "process-global counter [process-global-counter]",
                )
                return TaintValue(
                    Taint.TAINTED, "process-global-counter", (step,)
                )
            if canonical is not None:
                kind = source_kind(canonical)
                if kind is not None:
                    step = TraceStep(
                        f"{module.name}.<class default>", module.path,
                        node.lineno,
                        f"dataclass default calls {canonical}() [{kind}]",
                    )
                    return TaintValue(Taint.TAINTED, kind, (step,))
            return join_all([
                self._eval_default(module, child)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            ])
        # A bare source passed as the factory itself:
        # ``field(default_factory=uuid.uuid4)``.
        spelled = dotted_name(node)
        if spelled is not None:
            canonical = module.imports.resolve(spelled)
            kind = source_kind(canonical)
            if kind is not None:
                step = TraceStep(
                    f"{module.name}.<class default>", module.path,
                    node.lineno,
                    f"dataclass default factory is {canonical} [{kind}]",
                )
                return TaintValue(Taint.TAINTED, kind, (step,))
        values = [
            self._eval_default(module, child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return join_all(values)

    def _counter_read(
        self, module_name: str, node: ast.Call
    ) -> Optional[Tuple[str, int]]:
        """``(counter name, lineno)`` when ``node`` is ``next(<module
        counter>)``."""
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "next" and node.args):
            return None
        arg = node.args[0]
        if not isinstance(arg, ast.Name):
            return None
        counters = self.module_counters.get(module_name, {})
        if arg.id not in counters:
            return None
        return (arg.id, node.lineno)

    # -- per-function walk ----------------------------------------------

    def _analyze_function(self, info: FunctionInfo) -> FunctionSummary:
        if module_is_keyed(info.module):
            # The sanctioned randomness mint: everything it returns is
            # keyed-deterministic by definition.
            return FunctionSummary(
                fid=info.fid,
                returns=TaintValue(
                    Taint.KEYED, "keyed",
                    (TraceStep(info.label(), info.path, info.lineno,
                               f"{info.label()}() mints keyed draws"),),
                ),
            )
        walker = _FunctionWalker(self, info)
        return walker.run()


class _FunctionWalker:
    """The intraprocedural transfer rules for one function body."""

    def __init__(self, analyzer: TaintAnalyzer, info: FunctionInfo):
        self.analyzer = analyzer
        self.graph = analyzer.graph
        self.info = info
        self.summary = FunctionSummary(fid=info.fid)
        #: Local environment: variable -> TaintValue.
        self.env: Dict[str, TaintValue] = {}
        #: Locals currently holding an unordered (set) value.
        self.set_vars: Dict[str, bool] = {}
        #: Locals with an inferable package class (``x = Foo()``,
        #: ``x: Foo`` parameters) — attribute reads on them consult
        #: the shared class-attribute taint.
        module = self.graph.modules.get(info.module)
        self.local_types: Dict[str, str] = _infer_local_types(
            info, module, self.graph
        ) if module is not None else {}

    def run(self) -> FunctionSummary:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            value = self._eval(node.body)
            self.summary.returns = self.summary.returns.join(value)
            return self.summary
        body = getattr(node, "body", [])
        # Two passes pick up loop-carried and define-before-use taint
        # without a full worklist.
        for _ in range(2):
            for stmt in body:
                self._exec(stmt)
        return self.summary

    # -- statements -----------------------------------------------------

    def _exec(self, stmt: ast.AST) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._merge_return(self._eval(stmt.value))
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self._eval(stmt.test)
            for sub in list(stmt.body) + list(stmt.orelse):
                self._exec(sub)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            for sub in stmt.body:
                self._exec(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._exec(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._exec(sub)
            for sub in list(stmt.orelse) + list(stmt.finalbody):
                self._exec(sub)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        # Everything else: evaluate contained expressions for effects.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child)
            elif isinstance(child, ast.stmt):
                self._exec(child)

    def _exec_assign(self, stmt: ast.AST) -> None:
        value_node = getattr(stmt, "value", None)
        if value_node is None:
            return
        value = self._eval(value_node)
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target]
        is_set = self._is_unordered_expr(value_node)
        for target in targets:
            self._bind(target, value, is_set=is_set)

    def _bind(self, target: ast.AST, value: TaintValue,
              is_set: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(
                target.id, TaintValue.pure()
            ).join(value)
            if is_set:
                self.set_vars[target.id] = True
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value, is_set=False)
            return
        if isinstance(target, ast.Attribute):
            self._write_attribute(target, value)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                self._write_attribute(base, value)
            elif isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(
                    base.id, TaintValue.pure()
                ).join(value)
                if value.taint is Taint.TAINTED:
                    self._merge_state(value, target.lineno,
                                      f"store into {base.id}[...]")

    def _write_attribute(
        self, target: ast.Attribute, value: TaintValue
    ) -> None:
        spelled = dotted_name(target)
        root = (spelled or "").split(".", 1)[0]
        if root in ("self", "cls") and self.info.class_name is not None:
            attr = target.attr
            key = (self.info.class_name, attr)
            previous = self.analyzer.attr_taint.get(
                key, TaintValue.pure()
            )
            joined = previous.join(value)
            if joined.taint > previous.taint or (
                key not in self.analyzer.attr_taint
                and joined.taint > Taint.PURE
            ):
                self.analyzer.attr_taint[key] = joined
            if value.taint is Taint.TAINTED:
                self._merge_state(
                    value, target.lineno,
                    f"stores a tainted value into self.{attr}",
                )
        elif value.taint is Taint.TAINTED:
            self._merge_state(
                value, target.lineno,
                f"stores a tainted value into {spelled or 'an attribute'}",
            )

    def _exec_for(self, stmt: ast.For) -> None:
        iter_value = self._eval(stmt.iter)
        if self._is_unordered_expr(stmt.iter):
            iter_value = iter_value.join(self._unordered_value(stmt.iter))
        self._bind(stmt.target, iter_value)
        for _ in range(2):
            for sub in stmt.body:
                self._exec(sub)
        for sub in stmt.orelse:
            self._exec(sub)

    def _merge_return(self, value: TaintValue) -> None:
        self.summary.returns = self.summary.returns.join(value)

    def _merge_state(
        self, value: TaintValue, lineno: int, note: str
    ) -> None:
        step = TraceStep(self.info.label(), self.info.path, lineno,
                         f"{self.info.label()} {note}")
        self.summary.state = self.summary.state.join(
            value.with_step(step)
        )

    # -- expressions ----------------------------------------------------

    def _eval(self, node: ast.AST) -> TaintValue:
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, TaintValue.pure())
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value)
            env_read = self._env_object_read(node.value)
            if env_read is not None:
                return env_read
            self._eval(node.slice)
            return value
        if isinstance(node, (ast.Await, ast.Starred, ast.UnaryOp)):
            return self._eval(
                node.value if hasattr(node, "value") else node.operand
            )
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._merge_return(self._eval(node.value))
            return TaintValue.pure()
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).join(self._eval(node.orelse))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Lambda):
            return TaintValue.pure()
        # Structural nodes: join the children.
        values = [
            self._eval(child) for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return join_all(values)

    def _eval_attribute(self, node: ast.Attribute) -> TaintValue:
        spelled = dotted_name(node)
        if spelled is not None:
            root = spelled.split(".", 1)[0]
            if root in ("self", "cls") and self.info.class_name:
                value = self._class_attr(self.info.class_name, node.attr)
                if value is not None:
                    return value
                return TaintValue.pure()
            if root in self.local_types:
                value = self._class_attr(
                    self.local_types[root], node.attr
                )
                if value is not None:
                    step = TraceStep(
                        self.info.label(), self.info.path, node.lineno,
                        f"reads {spelled} "
                        f"({self.local_types[root]}.{node.attr})",
                    )
                    return value.with_step(step)
                return TaintValue.pure()
        return self._eval(node.value)

    def _class_attr(
        self, canonical_class: str, attr: str,
        _seen: Optional[set] = None,
    ) -> Optional[TaintValue]:
        seen = _seen if _seen is not None else set()
        if canonical_class in seen:
            return None
        seen.add(canonical_class)
        value = self.analyzer.attr_taint.get((canonical_class, attr))
        if value is not None:
            return value
        info = self.graph.classes.get(canonical_class)
        if info is None:
            return None
        for base in info.bases:
            value = self._class_attr(base, attr, seen)
            if value is not None:
                return value
        return None

    def _env_object_read(self, node: ast.AST) -> Optional[TaintValue]:
        spelled = dotted_name(node)
        if spelled is None:
            return None
        canonical = self.graph.modules[
            self.info.module
        ].imports.resolve(spelled)
        if canonical in ENV_OBJECTS:
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"reads {canonical}[...] [env-read]",
            )
            return TaintValue(Taint.TAINTED, "env-read", (step,))
        return None

    # -- calls ----------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> TaintValue:
        arg_values = [self._eval(arg) for arg in node.args]
        arg_values += [self._eval(kw.value) for kw in node.keywords]
        args = join_all(arg_values)

        callee, target = self.graph.call_targets.get(
            id(node), (None, "")
        )
        if not target:
            spelled = dotted_name(node.func)
            if spelled is None:
                # Indirect call (subscript, call result): taint of the
                # callee expression joins the arguments.
                return self._eval(node.func).join(args)
            target = spelled

        simple = target.rsplit(".", 1)[-1]
        if simple in ORDER_SANITIZERS and target == simple:
            return self._eval_sanitizer(node, args)
        counter = self.analyzer._counter_read(self.info.module, node) \
            if target == "next" else None
        if counter is not None:
            name, lineno = counter
            step = TraceStep(
                self.info.label(), self.info.path, lineno,
                f"draws next({name}) from a process-global counter "
                "[process-global-counter]",
            )
            return TaintValue(
                Taint.TAINTED, "process-global-counter", (step,)
            )
        if target == "set" and node.args:
            # ``set(x)`` keeps value taint; order taint arises only
            # when the set is iterated into ordered output.
            return args

        kind = source_kind(target)
        if kind is not None:
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"calls {target}() [{kind}]",
            )
            return TaintValue(Taint.TAINTED, kind, (step,))
        if names(target, KEYED_SUFFIXES):
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"draws {target}() [keyed]",
            )
            return args.join(TaintValue(Taint.KEYED, "keyed", (step,)))

        if callee is not None:
            value = self._eval_summary_call(node, callee, target, args)
        else:
            # Unknown callable: a pure function of its inputs.
            value = args
        self._container_mutation_effect(node, target, args)
        return value

    def _eval_summary_call(
        self, node: ast.Call, callee: str, target: str,
        args: TaintValue,
    ) -> TaintValue:
        summary = self.analyzer.summary_of(callee)
        info = self.graph.functions.get(callee)
        label = info.label() if info is not None else callee
        result = args
        if summary.returns.taint > Taint.PURE:
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"receives a {summary.returns.kind or 'tainted'} value "
                f"from {label}()",
            )
            result = result.join(summary.returns.with_step(step))
        if summary.state.taint is Taint.TAINTED:
            # Calling a function with tainted side effects taints our
            # own state effect (it may write into objects we share).
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"calls {label}(), which has tainted side effects",
            )
            self.summary.state = self.summary.state.join(
                summary.state.with_step(step)
            )
        if args.taint is Taint.TAINTED:
            # Passing tainted data into a callee that stores state is a
            # state effect at this call site.
            step = TraceStep(
                self.info.label(), self.info.path, node.lineno,
                f"passes a tainted value into {label}()",
            )
            self.summary.state = self.summary.state.join(
                args.with_step(step)
            )
        return result

    def _eval_sanitizer(
        self, node: ast.Call, args: TaintValue
    ) -> TaintValue:
        """``sorted()`` erases ordering taint, nothing else."""
        if args.kind == "unordered-iteration":
            return TaintValue.pure()
        return args

    def _container_mutation_effect(
        self, node: ast.Call, target: str, args: TaintValue
    ) -> None:
        """``self.xs.append(tainted)`` and friends are state writes."""
        if args.taint is not Taint.TAINTED:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in ("append", "add", "extend", "update",
                          "setdefault", "insert", "publish", "record",
                          "put", "push", "emit", "write"):
            return
        base = dotted_name(node.func.value)
        if base is None:
            return
        root = base.split(".", 1)[0]
        if root in ("self", "cls") or root in self.env:
            self._merge_state(
                args, node.lineno,
                f"feeds a tainted value into {base}.{method}()",
            )

    # -- unordered iteration --------------------------------------------

    def _is_unordered_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            spelled = dotted_name(node.func)
            if spelled == "set":
                return True
        if isinstance(node, ast.Name):
            return self.set_vars.get(node.id, False)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            return (self._is_unordered_expr(node.left)
                    or self._is_unordered_expr(node.right))
        return False

    def _unordered_value(self, node: ast.AST) -> TaintValue:
        step = TraceStep(
            self.info.label(), self.info.path, node.lineno,
            "iterates an unordered set into ordered output "
            "[unordered-iteration]",
        )
        return TaintValue(Taint.TAINTED, "unordered-iteration", (step,))

    def _eval_comprehension(self, node: ast.AST) -> TaintValue:
        values: List[TaintValue] = []
        ordered_output = not isinstance(node, ast.SetComp)
        for comp in node.generators:  # type: ignore[attr-defined]
            iter_value = self._eval(comp.iter)
            if ordered_output and self._is_unordered_expr(comp.iter):
                iter_value = iter_value.join(
                    self._unordered_value(comp.iter)
                )
            self._bind(comp.target, iter_value)
            values.append(iter_value)
            for condition in comp.ifs:
                self._eval(condition)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and not isinstance(
                child, ast.comprehension
            ):
                values.append(self._eval(child))
        return join_all(values)


def _class_field(item: ast.AST) -> Tuple[Optional[str], Optional[ast.AST]]:
    """``(attr name, default expr)`` for one class-body statement."""
    if isinstance(item, ast.AnnAssign) and isinstance(
        item.target, ast.Name
    ):
        return (item.target.id, item.value)
    if isinstance(item, ast.Assign) and len(item.targets) == 1 and \
            isinstance(item.targets[0], ast.Name):
        return (item.targets[0].id, item.value)
    return (None, None)
