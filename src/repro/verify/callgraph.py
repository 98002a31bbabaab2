"""A module-level call graph over a python package, built from source.

The flow analyzer (:mod:`repro.verify.flow`) needs to chase a value
through *calls*: a ``time.time()`` three helpers deep is invisible to
per-line linting but lands in an analyzer verdict all the same.  This
module builds the call graph that makes such chains walkable — purely
syntactically, without importing the code under analysis.

Resolved constructs:

* plain calls to module-level functions, in-module or across modules
  (via the shared :class:`~repro.verify.resolver.ImportTable`);
* method calls through ``self.``/``cls.``, following base classes
  declared in the package (including across modules);
* ``super().method()`` against the declaring class's bases;
* constructor calls ``ClassName(...)`` (edge to ``__init__`` when one
  is defined);
* method calls on locals with an inferable class — ``x = Foo()`` or a
  parameter annotated ``x: Foo``;
* lambdas bound to a name (``f = lambda ...``), treated as functions;
* functions passed *as values* — decorator applications,
  ``functools.partial(fn, ...)``, ``Process(target=fn)``, pool
  ``map(fn, ...)`` and friends — recorded as ``ref`` edges, because a
  function that escapes into a worker is called even though no call
  expression names it.

Resolution is best-effort and under-approximate by design: an edge the
builder cannot prove is recorded with ``callee=None`` and the spelled
target, never guessed.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.verify.resolver import (
    DISPATCH_METHODS,
    ImportTable,
    dotted_name,
    python_files,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "CallGraphBuilder",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
]


@dataclass
class FunctionInfo:
    """One function (or method, or named lambda) in the package."""

    fid: str                      # "pkg.module:Qual.name"
    module: str
    qualname: str
    name: str
    path: str
    lineno: int
    node: ast.AST
    class_name: Optional[str] = None   # canonical "pkg.module.Class"

    def label(self) -> str:
        """The display form used in evidence chains."""
        return f"{self.module}.{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition and its (spelled) bases."""

    canonical: str                # "pkg.module.Class"
    module: str
    name: str
    lineno: int
    bases: Tuple[str, ...] = ()   # canonical-resolved base names
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fid


@dataclass
class ModuleInfo:
    """One parsed module: tree plus its import table."""

    name: str
    path: str
    tree: ast.AST
    imports: ImportTable


@dataclass(frozen=True)
class CallEdge:
    """One resolved (or recorded-unresolved) call relationship."""

    caller: str                   # fid of the calling function
    callee: Optional[str]         # fid when resolved inside the package
    target: str                   # canonical dotted name as resolved
    lineno: int
    kind: str = "call"            # call | ref | decorator | super

    def resolved(self) -> bool:
        return self.callee is not None


class CallGraph:
    """The built graph: functions, classes, modules, and edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        self.edges: List[CallEdge] = []
        self._by_caller: Dict[str, List[CallEdge]] = {}
        #: Per-call-site resolution, keyed by ``id(ast.Call node)`` —
        #: the taint pass walks the same retained trees and looks its
        #: call expressions up here instead of re-resolving names.
        self.call_targets: Dict[int, Tuple[Optional[str], str]] = {}

    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._by_caller.setdefault(edge.caller, []).append(edge)

    def edges_from(self, fid: str) -> List[CallEdge]:
        """Outgoing edges of one function."""
        return self._by_caller.get(fid, [])

    def module_fid(self, module: str) -> str:
        """The pseudo-function holding a module's top-level statements."""
        return f"{module}:<module>"

    def function_for(self, canonical: str) -> Optional[str]:
        """The fid for a canonical dotted path, if it names a function
        or method defined in the package."""
        # Longest module prefix wins: "pkg.mod.Class.meth" splits into
        # module "pkg.mod" and qualname "Class.meth".
        parts = canonical.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                qualname = ".".join(parts[split:])
                fid = f"{module}:{qualname}"
                if fid in self.functions:
                    return fid
                return None
        return None

    def class_for(self, canonical: str) -> Optional[ClassInfo]:
        """The class a canonical dotted path names, if any."""
        return self.classes.get(canonical)

    def method_on(self, canonical_class: str, name: str,
                  _seen: Optional[set] = None) -> Optional[str]:
        """Resolve ``name`` on a class or its package-local ancestors."""
        seen = _seen if _seen is not None else set()
        if canonical_class in seen:
            return None
        seen.add(canonical_class)
        info = self.classes.get(canonical_class)
        if info is None:
            return None
        fid = info.methods.get(name)
        if fid is not None:
            return fid
        for base in info.bases:
            found = self.method_on(base, name, seen)
            if found is not None:
                return found
        return None


class CallGraphBuilder:
    """Parses modules and assembles a :class:`CallGraph`."""

    def __init__(self) -> None:
        self.graph = CallGraph()
        self._pending: List[ModuleInfo] = []

    # -- input ----------------------------------------------------------

    def add_source(self, module: str, source: str, path: str = "") -> None:
        """Queue one module's source text under a dotted module name."""
        tree = ast.parse(source, filename=path or module)
        info = ModuleInfo(
            name=module, path=path or module, tree=tree,
            imports=ImportTable.from_tree(tree),
        )
        self.graph.modules[module] = info
        self._pending.append(info)

    def add_package(self, root: str, package: Optional[str] = None) -> int:
        """Queue every ``.py`` file under ``root``; returns the count.

        ``package`` defaults to the directory's basename, so pointing
        at ``src/repro`` yields module names ``repro.network.fabric``
        and so on — matching how the package imports itself.
        """
        root = os.path.abspath(root)
        package = package or os.path.basename(root.rstrip(os.sep))
        paths = python_files(root)
        for path in paths:
            relative = os.path.relpath(path, root)
            parts = relative[:-3].replace(os.sep, "/").split("/")
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join([package] + [p for p in parts if p])
            with open(path, "r", encoding="utf-8") as handle:
                self.add_source(module, handle.read(), path)
        return len(paths)

    # -- build ----------------------------------------------------------

    def build(self) -> CallGraph:
        """Collect definitions, then resolve calls, then return."""
        for info in self._pending:
            self._collect_definitions(info)
        self._resolve_bases()
        for info in self._pending:
            self._collect_calls(info)
        self._pending = []
        return self.graph

    # -- pass 1: definitions --------------------------------------------

    def _collect_definitions(self, module: ModuleInfo) -> None:
        self._walk_scope(module, module.tree, qual=(), class_ctx=None)

    def _walk_scope(
        self,
        module: ModuleInfo,
        node: ast.AST,
        qual: Tuple[str, ...],
        class_ctx: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define_function(module, child, qual, class_ctx)
            elif isinstance(child, ast.ClassDef):
                self._define_class(module, child, qual)
            elif isinstance(child, ast.Assign):
                self._maybe_named_lambda(module, child, qual, class_ctx)

    def _define_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        qual: Tuple[str, ...],
        class_ctx: Optional[str],
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        qualname = ".".join(qual + (name,))
        fid = f"{module.name}:{qualname}"
        info = FunctionInfo(
            fid=fid, module=module.name, qualname=qualname, name=name,
            path=module.path, lineno=node.lineno, node=node,
            class_name=class_ctx,
        )
        self.graph.functions[fid] = info
        if class_ctx is not None:
            self.graph.classes[class_ctx].methods.setdefault(name, fid)
        # Nested defs are functions of their own (class context does not
        # survive into a method's local functions).
        self._walk_scope(module, node, qual + (name,), class_ctx=None)

    def _define_class(
        self, module: ModuleInfo, node: ast.ClassDef,
        qual: Tuple[str, ...],
    ) -> None:
        qualname = ".".join(qual + (node.name,))
        canonical = f"{module.name}.{qualname}"
        spelled_bases = tuple(
            spelled for spelled in (dotted_name(b) for b in node.bases)
            if spelled is not None
        )
        self.graph.classes[canonical] = ClassInfo(
            canonical=canonical, module=module.name, name=node.name,
            lineno=node.lineno, bases=spelled_bases,
        )
        self._walk_scope(
            module, node, qual + (node.name,), class_ctx=canonical
        )

    def _maybe_named_lambda(
        self,
        module: ModuleInfo,
        node: ast.Assign,
        qual: Tuple[str, ...],
        class_ctx: Optional[str],
    ) -> None:
        if not isinstance(node.value, ast.Lambda):
            return
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            return
        name = node.targets[0].id
        qualname = ".".join(qual + (name,))
        fid = f"{module.name}:{qualname}"
        self.graph.functions[fid] = FunctionInfo(
            fid=fid, module=module.name, qualname=qualname, name=name,
            path=module.path, lineno=node.lineno, node=node.value,
            class_name=class_ctx,
        )
        if class_ctx is not None:
            self.graph.classes[class_ctx].methods.setdefault(name, fid)

    def _resolve_bases(self) -> None:
        """Rewrite spelled base names to canonical class names."""
        for info in self.graph.classes.values():
            module = self.graph.modules[info.module]
            resolved = []
            for spelled in info.bases:
                canonical = self._canonical_class(module, spelled)
                if canonical is not None:
                    resolved.append(canonical)
            info.bases = tuple(resolved)

    def _canonical_class(
        self, module: ModuleInfo, spelled: str
    ) -> Optional[str]:
        # Same module first, then the import table.
        local = f"{module.name}.{spelled}"
        if local in self.graph.classes:
            return local
        canonical = module.imports.resolve(spelled)
        if canonical in self.graph.classes:
            return canonical
        return None

    # -- pass 2: calls --------------------------------------------------

    def _collect_calls(self, module: ModuleInfo) -> None:
        collector = _CallCollector(self, module)
        collector.run()


class _CallCollector:
    """Resolves the call/ref edges of one module."""

    def __init__(
        self, builder: CallGraphBuilder, module: ModuleInfo
    ) -> None:
        self.builder = builder
        self.graph = builder.graph
        self.module = module

    def run(self) -> None:
        module_fid = self.graph.module_fid(self.module.name)
        self._scan_body(
            self.module.tree, caller=module_fid, function=None
        )
        for fid, info in list(self.graph.functions.items()):
            if info.module != self.module.name:
                continue
            self._scan_function(info)

    # -- scanning -------------------------------------------------------

    def _scan_function(self, info: FunctionInfo) -> None:
        local_types = _infer_local_types(
            info, self.module, self.graph
        )
        if isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in info.node.decorator_list:
                self._edge_for_decorator(info, decorator)
            body: Sequence[ast.AST] = info.node.body
        else:  # a named lambda
            body = [info.node.body]  # type: ignore[attr-defined]
        for stmt in body:
            self._scan_body(stmt, caller=info.fid, function=info,
                            local_types=local_types, include_self=True)

    def _scan_body(
        self,
        node: ast.AST,
        caller: str,
        function: Optional[FunctionInfo],
        local_types: Optional[Dict[str, str]] = None,
        include_self: bool = False,
    ) -> None:
        """Walk one scope's statements, stopping at nested defs."""
        stack = [node] if include_self or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ) else []
        while stack:
            current = stack.pop()
            if isinstance(current, ast.Call):
                self._edges_for_call(
                    current, caller, function, local_types or {}
                )
            for child in ast.iter_child_nodes(current):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef,
                     ast.ClassDef, ast.Lambda),
                ):
                    continue  # nested scopes are their own callers
                stack.append(child)

    # -- edge construction ----------------------------------------------

    def _add(self, caller: str, callee: Optional[str], target: str,
             lineno: int, kind: str = "call") -> None:
        self.graph.add_edge(CallEdge(
            caller=caller, callee=callee, target=target,
            lineno=lineno, kind=kind,
        ))

    def _edge_for_decorator(
        self, info: FunctionInfo, decorator: ast.AST
    ) -> None:
        # ``@deco(arg)`` applies the *result* of a call; the decorator
        # name is the call's func.
        node = decorator.func if isinstance(
            decorator, ast.Call
        ) else decorator
        resolved = self._resolve_callable(node, info, {})
        if resolved is None:
            return
        callee, target = resolved
        self._add(info.fid, callee, target, decorator.lineno,
                  kind="decorator")

    def _edges_for_call(
        self,
        node: ast.Call,
        caller: str,
        function: Optional[FunctionInfo],
        local_types: Dict[str, str],
    ) -> None:
        resolved = self._resolve_callable(node.func, function, local_types)
        if resolved is not None:
            callee, target = resolved
            kind = "super" if _is_super_call(node.func) else "call"
            self._add(caller, callee, target, node.lineno, kind=kind)
            self.graph.call_targets[id(node)] = (callee, target)
            spelled = dotted_name(node.func)
        else:
            spelled = dotted_name(node.func)
            if spelled is not None:
                canonical = self.module.imports.resolve(spelled)
                self._add(caller, None, canonical, node.lineno)
                self.graph.call_targets[id(node)] = (None, canonical)
        self._edges_for_escapes(node, caller, function, local_types,
                                spelled)

    def _edges_for_escapes(
        self,
        node: ast.Call,
        caller: str,
        function: Optional[FunctionInfo],
        local_types: Dict[str, str],
        spelled: Optional[str],
    ) -> None:
        """``ref`` edges for functions passed as values."""
        candidates: List[ast.AST] = []
        last = (spelled or "").rsplit(".", 1)[-1]
        if last.endswith("Process"):
            candidates.extend(
                kw.value for kw in node.keywords if kw.arg == "target"
            )
        elif last == "partial":
            if node.args:
                candidates.append(node.args[0])
        elif last in DISPATCH_METHODS and spelled and "." in spelled:
            if node.args:
                candidates.append(node.args[0])
        else:
            # A bare function name in any argument position escapes.
            candidates.extend(node.args)
            candidates.extend(kw.value for kw in node.keywords)
        for candidate in candidates:
            if not isinstance(candidate, (ast.Name, ast.Attribute)):
                continue
            resolved = self._resolve_callable(
                candidate, function, local_types
            )
            if resolved is None:
                continue
            callee, target = resolved
            if callee is None:
                continue  # only record escapes we can pin to a def
            self._add(caller, callee, target, candidate.lineno,
                      kind="ref")

    # -- name resolution ------------------------------------------------

    def _resolve_callable(
        self,
        node: ast.AST,
        function: Optional[FunctionInfo],
        local_types: Dict[str, str],
    ) -> Optional[Tuple[Optional[str], str]]:
        """``(fid-or-None, canonical target)`` for a callable node."""
        # super().method
        if isinstance(node, ast.Attribute) and _is_super_call(node):
            return self._resolve_super(node, function)
        spelled = dotted_name(node)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        # self.method / cls.method
        if head in ("self", "cls") and rest and function is not None \
                and function.class_name is not None:
            method = rest.split(".", 1)[0]
            fid = self.graph.method_on(function.class_name, method)
            target = f"{function.class_name}.{method}"
            return (fid, target)
        # x.method where x has an inferred class
        if head in local_types and rest:
            method = rest.split(".", 1)[0]
            canonical_class = local_types[head]
            fid = self.graph.method_on(canonical_class, method)
            if fid is not None:
                return (fid, f"{canonical_class}.{method}")
        # Plain name: same-module function first.
        if not rest:
            local_fid = f"{self.module.name}:{spelled}"
            if local_fid in self.graph.functions:
                return (local_fid, f"{self.module.name}.{spelled}")
            # A class constructor in this module?
            local_class = f"{self.module.name}.{spelled}"
            if local_class in self.graph.classes:
                init = self.graph.method_on(local_class, "__init__")
                return (init, f"{local_class}.__init__")
        # Through the import table.
        canonical = self.module.imports.resolve(spelled)
        fid = self.graph.function_for(canonical)
        if fid is not None:
            return (fid, canonical)
        info = self.graph.class_for(canonical)
        if info is not None:
            init = self.graph.method_on(canonical, "__init__")
            return (init, f"{canonical}.__init__")
        if canonical != spelled or "." in spelled:
            # An external target worth recording (time.time, np.random).
            return (None, canonical)
        return None

    def _resolve_super(
        self, node: ast.Attribute, function: Optional[FunctionInfo]
    ) -> Optional[Tuple[Optional[str], str]]:
        if function is None or function.class_name is None:
            return None
        info = self.graph.classes.get(function.class_name)
        if info is None:
            return None
        for base in info.bases:
            fid = self.graph.method_on(base, node.attr)
            if fid is not None:
                return (fid, f"{base}.{node.attr}")
        return (None, f"super().{node.attr}")


def _is_super_call(node: ast.AST) -> bool:
    """Whether ``node`` is the ``super().attr`` callable shape."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
    )


def _infer_local_types(
    info: FunctionInfo, module: ModuleInfo, graph: CallGraph
) -> Dict[str, str]:
    """Map local names to canonical classes: ``x = Foo()`` and
    parameter annotations ``x: Foo``."""
    types: Dict[str, str] = {}
    node = info.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = list(node.args.posonlyargs) + list(node.args.args) + \
            list(node.args.kwonlyargs)
        for arg in args:
            if arg.annotation is None:
                continue
            annotation = arg.annotation
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                spelled: Optional[str] = annotation.value
            else:
                spelled = dotted_name(annotation)
            if spelled is None:
                continue
            canonical = _canonical_class_name(spelled, module, graph)
            if canonical is not None:
                types[arg.arg] = canonical
        body: Sequence[ast.AST] = node.body
    else:
        body = []
    for stmt in body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Assign):
                continue
            if len(sub.targets) != 1 or not isinstance(
                sub.targets[0], ast.Name
            ):
                continue
            if not isinstance(sub.value, ast.Call):
                continue
            spelled = dotted_name(sub.value.func)
            if spelled is None:
                continue
            canonical = _canonical_class_name(spelled, module, graph)
            if canonical is not None:
                types[sub.targets[0].id] = canonical
    return types


def _canonical_class_name(
    spelled: str, module: ModuleInfo, graph: CallGraph
) -> Optional[str]:
    local = f"{module.name}.{spelled}"
    if local in graph.classes:
        return local
    canonical = module.imports.resolve(spelled)
    if canonical in graph.classes:
        return canonical
    return None
