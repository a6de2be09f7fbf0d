"""Concurrency lint: races, fork hazards, nondeterminism (JCD014-018).

The multi-tenant server's byte-identity guarantee -- every tenant sees
the id streams, frame sizes and report bytes of a fresh single-tenant
process -- rests on conventions: marshalled ids come from the
session's :class:`repro.core.ids.IdSpace`, forked workers must not
inherit live threads, dispatch-reachable code must not bump
shared state outside a lock, and marshalled replies must not depend on
set order or wall clocks.  These rules turn each convention into a
static check over the :mod:`repro.lint.callgraph` index:

* **JCD014** -- a module-level counter (``itertools.count`` or
  ``global``-incremented int) outside the id-space module is reachable
  from server dispatch paths: two tenants would draw from one
  sequence.  Waived (provably non-marshalled) counters pass.
* **JCD015** -- a blocking call (``time.sleep``, ``open``, raw
  sockets, ``Future.result``, explicit lock ``.acquire``) inside an
  ``async def`` in :mod:`repro.server`: one tenant's wait stalls the
  whole event loop.
* **JCD016** -- fork-unsafety: threads/executors/locks created before
  a ``ProcessDispatcher`` forks its workers, or threads started inside
  a worker initializer, are inherited in undefined states.
* **JCD017** -- dispatch-reachable code mutates module- or
  class-level mutable state outside any lock/gate ``with`` block:
  concurrent tenants race on it.
* **JCD018** -- nondeterminism feeding marshalled bytes: set
  iteration, ``id()``, wall clocks, module-level ``random``,
  ``os.urandom`` inside servant-class methods.

Like the servant analyzers, nothing here imports or executes analyzed
code, and per-line ``# lint: allow(JCDxxx)`` waivers apply on the
finding line or the enclosing ``def`` line.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .callgraph import CallGraph, ModuleInfo
from .findings import Finding
from .registry import finding
from .servants import MUTATING_CALLS, _allowed_codes

ID_SPACE_MODULE = "repro.core.ids"
"""The one module allowed to hold the marshalled id counters (JCD014)."""

SERVER_MODULE_PREFIX = "repro.server"
"""JCD015 applies to async code under this package (plus fixtures that
opt in by naming their module accordingly)."""

BLOCKING_ATTR_CALLS: FrozenSet[str] = frozenset({
    "result", "acquire", "recv", "recv_into", "accept", "sendall",
})
"""Attribute calls that block the calling thread (JCD015) unless
awaited or shipped to an executor."""

THREADING_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "Thread", "Timer", "ThreadPoolExecutor", "Lock", "RLock",
    "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
})
"""Constructors whose products a fork inherits in undefined states
(threads vanish, locks freeze mid-acquire)."""

GUARD_HINTS: Tuple[str, ...] = ("lock", "gate", "mutex", "guard")
"""A ``with`` expression mentioning one of these (or calling
``.isolated()``) counts as owning the state it mutates (JCD017)."""

WALL_CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "now", "utcnow", "urandom",
})
"""Attribute calls on ``time``/``datetime``/``os`` that read wall
clocks or entropy (JCD018)."""

MUTABLE_FACTORY_NAMES: FrozenSet[str] = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


def _ref_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _chain_root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_mutable_literal(node: ast.AST) -> bool:
    """A value whose module-level assignment creates shared mutable
    state: literal dict/list/set or a known mutable-factory call."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _ref_name(node.func)
        return name in MUTABLE_FACTORY_NAMES
    return False


class _Emitter:
    """Shared waiver-aware finding collector."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._allowed: Dict[str, Dict[int, Set[str]]] = {}

    def allow_map(self, module: ModuleInfo) -> Dict[int, Set[str]]:
        cached = self._allowed.get(module.path)
        if cached is None:
            cached = _allowed_codes(module.source)
            self._allowed[module.path] = cached
        return cached

    def emit(self, module: ModuleInfo, code: str, message: str,
             line: int, def_line: Optional[int] = None) -> None:
        allowed = self.allow_map(module)
        for waiver_line in (line, def_line):
            if waiver_line is not None \
                    and code in allowed.get(waiver_line, ()):
                return
        self.findings.append(
            finding(code, message, module.path, line=line))


# ---------------------------------------------------------------------------
# JCD014 -- id counters outside the id-space module
# ---------------------------------------------------------------------------

def _lint_global_counters(graph: CallGraph, emitter: _Emitter) -> None:
    for counter in graph.counters():
        if counter.module == ID_SPACE_MODULE:
            continue
        if not graph.is_dispatch_reachable(counter):
            continue  # never runs during server dispatch
        module = graph.modules[counter.module]
        consumers = sorted(
            info.qualname
            for info in graph.dispatch_consumers(counter))
        shown = ", ".join(consumers[:3])
        if len(consumers) > 3:
            shown += f", ... ({len(consumers)} total)"
        emitter.emit(
            module, "JCD014",
            f"module-level counter {counter.module}.{counter.attr} is "
            f"consumed on server dispatch paths (via {shown}); "
            f"concurrent tenants would share its sequence -- draw it "
            f"from the session's {ID_SPACE_MODULE}.IdSpace, or waive "
            f"it here with a comment proving its values never reach "
            f"marshalled bytes",
            counter.lineno)


# ---------------------------------------------------------------------------
# JCD015 -- blocking calls inside async def
# ---------------------------------------------------------------------------

def _blocking_calls(function: ast.AsyncFunctionDef
                    ) -> List[Tuple[int, str]]:
    awaited: Set[int] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Await):
            awaited.add(id(node.value))
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(function):
        if isinstance(node, (ast.AsyncFunctionDef, ast.FunctionDef)) \
                and node is not function:
            continue  # nested defs are analyzed on their own
        if not isinstance(node, ast.Call) or id(node) in awaited:
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                hits.append((node.lineno, "open() performs file I/O"))
            continue
        if not isinstance(func, ast.Attribute):
            continue
        root = _chain_root_name(func)
        if func.attr == "sleep" and root == "time":
            hits.append((node.lineno, "time.sleep() blocks the loop"))
        elif func.attr == "socket" and root == "socket":
            hits.append((node.lineno,
                         "raw socket I/O blocks the loop"))
        elif func.attr in BLOCKING_ATTR_CALLS:
            hits.append((node.lineno,
                         f".{func.attr}() blocks the calling thread"))
    return hits


def _lint_async_blocking(graph: CallGraph, emitter: _Emitter) -> None:
    for module in graph.modules.values():
        if not module.name.startswith(SERVER_MODULE_PREFIX):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for line, why in _blocking_calls(node):
                emitter.emit(
                    module, "JCD015",
                    f"async def {node.name} makes a blocking call: "
                    f"{why}; every tenant on this event loop stalls "
                    f"behind it -- await it, or ship it to an "
                    f"executor", line, def_line=node.lineno)


# ---------------------------------------------------------------------------
# JCD016 -- fork-unsafety around ProcessDispatcher
# ---------------------------------------------------------------------------

def _lint_fork_safety(graph: CallGraph, emitter: _Emitter) -> None:
    initializer_names: Set[str] = set()
    for info in graph.functions.values():
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    name = _ref_name(keyword.value)
                    if name is not None:
                        initializer_names.add(name)

    for info in graph.functions.values():
        module = graph.modules[info.module]
        fork_line: Optional[int] = None
        creations: List[Tuple[int, str]] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = _ref_name(node.func)
            if name == "ProcessDispatcher":
                if fork_line is None or node.lineno < fork_line:
                    fork_line = node.lineno
            elif name in THREADING_CONSTRUCTORS:
                creations.append((node.lineno, name))
        if fork_line is not None:
            for line, name in sorted(creations):
                if line < fork_line:
                    emitter.emit(
                        module, "JCD016",
                        f"{info.qualname} creates a {name} at line "
                        f"{line}, before the ProcessDispatcher fork "
                        f"point at line {fork_line}; forked workers "
                        f"inherit it in an undefined state -- fork "
                        f"first, then create threads and locks",
                        line, def_line=info.node.lineno)
        if info.name in initializer_names:
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _ref_name(node.func)
                started = isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "start"
                if name in {"Thread", "Timer", "ThreadPoolExecutor"} \
                        or started:
                    emitter.emit(
                        module, "JCD016",
                        f"worker initializer {info.qualname} starts "
                        f"threads; a pool initializer must leave the "
                        f"worker single-threaded or later forks "
                        f"inherit them mid-flight",
                        node.lineno, def_line=info.node.lineno)


# ---------------------------------------------------------------------------
# JCD017 -- unguarded shared-state mutation on dispatch paths
# ---------------------------------------------------------------------------

def _module_mutables(module: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for node in module.tree.body:
        value: Optional[ast.AST] = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _class_mutables(module: ModuleInfo) -> Dict[str, Set[str]]:
    per_class: Dict[str, Set[str]] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names: Set[str] = set()
        for statement in node.body:
            if isinstance(statement, ast.Assign) \
                    and _is_mutable_literal(statement.value):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        if names:
            per_class[node.name] = names
    return per_class


def _guarded_ranges(function: "ast.FunctionDef | ast.AsyncFunctionDef"
                    ) -> List[Tuple[int, int]]:
    """Line ranges inside ``with`` blocks that own a lock or gate."""
    ranges: List[Tuple[int, int]] = []
    for node in ast.walk(function):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        owns = False
        for item in node.items:
            expr = item.context_expr
            for sub in ast.walk(expr):
                name = _ref_name(sub)
                if name is None:
                    continue
                lowered = name.lower()
                if name == "isolated" \
                        or any(hint in lowered
                               for hint in GUARD_HINTS):
                    owns = True
                    break
            if owns:
                break
        if owns:
            end = getattr(node, "end_lineno", None) or node.lineno
            ranges.append((node.lineno, end))
    return ranges


def _lint_shared_mutation(graph: CallGraph, emitter: _Emitter) -> None:
    module_mutables = {name: _module_mutables(module)
                       for name, module in graph.modules.items()}
    class_mutables = {name: _class_mutables(module)
                      for name, module in graph.modules.items()}
    reachable = graph.reachable()

    for info in graph.functions.values():
        if info.qualname not in reachable:
            continue
        module = graph.modules[info.module]
        shared = module_mutables[info.module]
        class_shared: Set[str] = set()
        if info.cls is not None:
            class_shared = class_mutables[info.module].get(
                info.cls, set())
        if not shared and not class_shared:
            continue
        guarded = _guarded_ranges(info.node)

        def is_guarded(line: int) -> bool:
            return any(start <= line <= end for start, end in guarded)

        def describe(root: str, node: ast.AST) -> Optional[str]:
            # A mutation counts when its chain is rooted at a
            # module-level mutable, or at self/cls reaching a
            # class-level mutable attribute.
            if root in shared:
                return root
            if root in ("self", "cls") and isinstance(
                    node, (ast.Attribute, ast.Subscript)):
                chain = node
                while isinstance(chain, ast.Subscript):
                    chain = chain.value
                if isinstance(chain, ast.Attribute) \
                        and chain.attr in class_shared:
                    return f"{info.cls}.{chain.attr}"
            return None

        for node in ast.walk(info.node):
            hit: Optional[Tuple[int, str, str]] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets \
                    if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target,
                                      (ast.Subscript, ast.Attribute)):
                        continue
                    root = _chain_root_name(target)
                    if root is None:
                        continue
                    which = describe(root, target)
                    if which is not None:
                        hit = (node.lineno, which, "writes")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    root = _chain_root_name(target)
                    if root is None:
                        continue
                    which = describe(root, target)
                    if which is not None:
                        hit = (node.lineno, which, "deletes from")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_CALLS:
                root = _chain_root_name(node.func.value)
                if root is not None:
                    which = describe(root, node.func.value)
                    if which is not None:
                        hit = (node.lineno, which,
                               f"calls {node.func.attr}() on")
            if hit is None or is_guarded(hit[0]):
                continue
            line, which, verb = hit
            emitter.emit(
                module, "JCD017",
                f"{info.qualname} {verb} shared mutable state "
                f"{which!r} on a dispatch-reachable path with no "
                f"owning lock or gate; concurrent tenants race on it "
                f"-- guard the mutation, or waive with a comment "
                f"explaining the ownership story",
                line, def_line=info.node.lineno)


# ---------------------------------------------------------------------------
# JCD018 -- nondeterminism inside servant classes
# ---------------------------------------------------------------------------

def _servant_class_names(module: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            if isinstance(statement, ast.Assign) and any(
                    isinstance(target, ast.Name)
                    and target.id == "REMOTE_METHODS"
                    for target in statement.targets):
                names.add(node.name)
    return names


def _nondeterminism(function: "ast.FunctionDef | ast.AsyncFunctionDef"
                    ) -> List[Tuple[int, str]]:
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "id":
                    hits.append((node.lineno,
                                 "id() varies per process"))
            elif isinstance(func, ast.Attribute):
                root = _chain_root_name(func)
                if root == "random" and func.attr == "Random":
                    # Constructing an explicitly seeded RNG instance
                    # is the deterministic alternative, not a defect.
                    pass
                elif root == "random":
                    hits.append(
                        (node.lineno,
                         f"module-level random.{func.attr}() draws "
                         f"from shared unseeded state"))
                elif func.attr in WALL_CLOCK_CALLS \
                        and root in ("time", "datetime", "os"):
                    hits.append(
                        (node.lineno,
                         f"{root}.{func.attr}() reads the wall clock "
                         f"or entropy"))
        iter_expr: Optional[ast.AST] = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iter_expr = node.generators[0].iter
        if iter_expr is not None:
            is_set = isinstance(iter_expr, ast.Set) \
                or isinstance(iter_expr, ast.SetComp)
            if isinstance(iter_expr, ast.Call):
                name = _ref_name(iter_expr.func)
                is_set = name in ("set", "frozenset")
            if is_set:
                hits.append((node.lineno,
                             "iterates a set; the order is not part "
                             "of the language contract"))
    return hits


def _lint_servant_determinism(graph: CallGraph,
                              emitter: _Emitter) -> None:
    for module in graph.modules.values():
        servant_classes = _servant_class_names(module)
        if not servant_classes:
            continue
        for info in graph.functions.values():
            if info.module != module.name \
                    or info.cls not in servant_classes:
                continue
            for line, why in _nondeterminism(info.node):
                emitter.emit(
                    module, "JCD018",
                    f"{info.qualname} feeds nondeterminism toward "
                    f"marshalled bytes: {why}; replies must be "
                    f"byte-identical across runs -- sort, seed, or "
                    f"derive from call inputs", line,
                    def_line=info.node.lineno)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lint_call_graph(graph: CallGraph) -> List[Finding]:
    """Run every concurrency rule over a built call graph."""
    emitter = _Emitter()
    _lint_global_counters(graph, emitter)
    _lint_async_blocking(graph, emitter)
    _lint_fork_safety(graph, emitter)
    _lint_shared_mutation(graph, emitter)
    _lint_servant_determinism(graph, emitter)
    return emitter.findings


def lint_concurrency(specs: Sequence[str]) -> List[Finding]:
    """Run the concurrency rules over files and directories.

    Unlike the per-file servant analyzers, the whole sweep is one
    unit: reachability only makes sense across module boundaries.
    """
    from .servants import iter_source_files
    paths: List[str] = []
    for spec in specs:
        paths.extend(iter_source_files(spec))
    return lint_call_graph(CallGraph.from_files(paths))


def lint_concurrency_sources(sources: Mapping[str, str]
                             ) -> List[Finding]:
    """In-memory variant for tests: ``{dotted_module: source}``."""
    return lint_call_graph(CallGraph.from_sources(sources))


__all__ = [
    "lint_call_graph",
    "lint_concurrency",
    "lint_concurrency_sources",
]
