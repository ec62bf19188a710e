"""The AST taint analysis behind ST-Analyzer.

Model: every ``(function, variable)`` pair is a node in an alias graph.
Edges come from

* simple assignments ``a = b`` (alias, symmetric: both names now refer to
  the same buffer object);
* tuple assignments ``a, b = c, d`` pairwise;
* call bindings: passing variable ``v`` as the ``i``-th argument of a call
  to module-level function ``f`` aliases ``v`` with ``f``'s ``i``-th
  parameter (keyword arguments bind by name);
* returns: ``return x`` inside ``f`` aliases ``x`` with the synthetic node
  ``(f, "<return>")``, which in turn aliases any ``y = f(...)`` target.

Seeds are the buffer arguments of one-sided calls — ``win_create(buf)``,
``*.put(origin, ...)``, ``*.get(origin, ...)``, ``*.accumulate(origin,
...)`` — since those are exactly the variables the MPI memory model
subjects to consistency rules.  A variable is *relevant* iff its node is
connected to a seed; a buffer *name* is instrumented iff some relevant
variable is assigned from ``mpi.alloc("<name>", ...)``.

The analysis is flow-insensitive (no branch/loop reasoning) and
over-approximates, matching the paper's design choice: "ST-Analyzer may
mark some variables that do not need to be instrumented in reality, but it
will not fail to mark those that need to be instrumented."
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.stanalyzer.report import InstrumentationReport

#: Method names whose first positional argument is a one-sided buffer.
_RMA_METHODS = {"put", "get", "accumulate", "win_create",
                # MPI-3 extensions
                "get_accumulate", "fetch_and_op", "compare_and_swap",
                "rput", "rget", "raccumulate"}
#: MPI-3 fetching calls also take local result/compare buffers: how many
#: leading positional arguments are buffers.
_RMA_BUFFER_ARITY = {"get_accumulate": 2, "fetch_and_op": 2,
                     "compare_and_swap": 3}
#: Keyword names that carry a buffer in those calls.
_RMA_BUFFER_KEYWORDS = {"origin_buf", "buf", "result_buf", "compare_buf"}
#: The allocation method recognized for name binding.
_ALLOC_METHOD = "alloc"

_RETURN = "<return>"

Node = Tuple[str, str]  # (function qualname, variable name)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Node, Node] = {}

    def find(self, node: Node) -> Node:
        parent = self._parent.setdefault(node, node)
        if parent != node:
            parent = self.find(parent)
            self._parent[node] = parent
        return parent

    def union(self, a: Node, b: Node) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def nodes(self) -> List[Node]:
        return list(self._parent)


class _FunctionIndex(ast.NodeVisitor):
    """First pass: map function names to their parameter lists."""

    def __init__(self) -> None:
        self.params: Dict[str, List[str]] = {}
        self._stack: List[str] = []

    def _visit_fn(self, node) -> None:
        name = node.name
        self.params[name] = [a.arg for a in node.args.args]
        self._stack.append(name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_fn
    visit_AsyncFunctionDef = _visit_fn


class _AliasCollector(ast.NodeVisitor):
    """Second pass: build alias edges, seeds, and alloc sites."""

    def __init__(self, params: Dict[str, List[str]]):
        self.params = params
        self.uf = _UnionFind()
        self.seeds: Set[Node] = set()
        self.alloc_sites: List[Tuple[str, str, str, int]] = []
        self._fn_stack: List[str] = ["<module>"]
        # variables holding function references, e.g. ``f = helper`` or
        # ``f = a if cond else b`` — calls through them bind to all targets
        self.fn_aliases: Dict[Node, Set[str]] = {}

    # -- scope tracking -------------------------------------------------

    @property
    def scope(self) -> str:
        return self._fn_stack[-1]

    def _visit_fn(self, node) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_FunctionDef = _visit_fn
    visit_AsyncFunctionDef = _visit_fn

    # -- helpers ----------------------------------------------------------

    def _node_for(self, expr: ast.expr) -> Optional[Node]:
        if isinstance(expr, ast.Name):
            return (self.scope, expr.id)
        return None

    def _handle_call(self, call: ast.Call,
                     target: Optional[Node]) -> None:
        func = call.func
        # method call on some object
        if isinstance(func, ast.Attribute):
            method = func.attr
            if method in _RMA_METHODS:
                arity = _RMA_BUFFER_ARITY.get(method, 1)
                buffer_args = [self._node_for(arg)
                               for arg in call.args[:arity]]
                buffer_args += [self._node_for(kw.value)
                                for kw in call.keywords
                                if kw.arg in _RMA_BUFFER_KEYWORDS]
                for buffer_arg in buffer_args:
                    if buffer_arg is not None:
                        self.uf.find(buffer_arg)
                        self.seeds.add(buffer_arg)
            elif method == _ALLOC_METHOD and target is not None:
                if call.args and isinstance(call.args[0], ast.Constant) \
                        and isinstance(call.args[0].value, str):
                    self.alloc_sites.append(
                        (target[0], target[1], call.args[0].value,
                         call.lineno))
        # direct or aliased call to a module-level function: bind args
        elif isinstance(func, ast.Name):
            callees: Set[str] = set()
            if func.id in self.params:
                callees.add(func.id)
            callees |= self.fn_aliases.get((self.scope, func.id), set())
            for callee in callees:
                callee_params = self.params[callee]
                for i, arg in enumerate(call.args):
                    arg_node = self._node_for(arg)
                    if arg_node is not None and i < len(callee_params):
                        self.uf.union(arg_node, (callee, callee_params[i]))
                for kw in call.keywords:
                    arg_node = self._node_for(kw.value)
                    if arg_node is not None and kw.arg in callee_params:
                        self.uf.union(arg_node, (callee, kw.arg))
                if target is not None:
                    self.uf.union(target, (callee, _RETURN))

    # -- statements -------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        for target_expr in node.targets:
            # tuple unpacking: pair element-wise when shapes line up
            if isinstance(target_expr, ast.Tuple) and \
                    isinstance(value, ast.Tuple) and \
                    len(target_expr.elts) == len(value.elts):
                for t, v in zip(target_expr.elts, value.elts):
                    self._assign_one(t, v)
            else:
                self._assign_one(target_expr, value)
        self.generic_visit(node)

    def _assign_one(self, target_expr: ast.expr, value: ast.expr) -> None:
        if isinstance(value, ast.IfExp):
            # conditional alias: conservatively bind both branches
            self._assign_one(target_expr, value.body)
            self._assign_one(target_expr, value.orelse)
            return
        target = self._node_for(target_expr)
        if isinstance(value, ast.Call):
            self._handle_call(value, target)
        value_node = self._node_for(value)
        if target is not None and value_node is not None:
            self.uf.union(target, value_node)
            if value_node[1] in self.params:
                # the RHS names a module-level function: record the alias
                self.fn_aliases.setdefault(target, set()).add(value_node[1])

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node, target=None)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            value_node = self._node_for(node.value)
            if value_node is not None:
                self.uf.union(value_node, (self.scope, _RETURN))
        self.generic_visit(node)


#: Reports kept by :func:`analyze_source`, least recently used dropped.
_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_MEMO_SIZE)
def analyze_source(source: str, filename: str = "<source>"
                   ) -> InstrumentationReport:
    """Run ST-Analyzer over Python source text.

    A pure function of ``(source, filename)``, memoized like the paper's
    compile-time pass runs once per build: the same text gets the same
    (immutable) report object back.  A source that does not parse raises
    on every call — exceptions are not cached.
    """
    tree = ast.parse(textwrap.dedent(source), filename=filename)
    index = _FunctionIndex()
    index.visit(tree)
    collector = _AliasCollector(index.params)
    collector.visit(tree)

    uf = collector.uf
    seed_roots = {uf.find(seed) for seed in collector.seeds}
    relevant: Dict[str, Set[str]] = {}
    for node in uf.nodes():
        if uf.find(node) in seed_roots:
            fn, var = node
            if var != _RETURN:
                relevant.setdefault(fn, set()).add(var)

    buffer_names: Set[str] = set()
    for fn, var, buf_name, _line in collector.alloc_sites:
        if var in relevant.get(fn, ()):
            buffer_names.add(buf_name)

    return InstrumentationReport(
        relevant_vars=relevant,
        buffer_names=buffer_names,
        seeds={(fn, var) for fn, var in collector.seeds},
        alloc_sites=collector.alloc_sites,
    )


def analyze_module(module) -> InstrumentationReport:
    """Run ST-Analyzer over an imported module's source — its current
    text: :func:`inspect.getsource` re-checks the file through
    :mod:`linecache`, so an edited module is analysed again."""
    return analyze_source(inspect.getsource(module),
                          filename=getattr(module, "__file__", "<module>"))


def unwrap_app(app: Callable) -> Callable:
    """The callable whose source *is* the application: ``app`` with its
    ``functools.partial`` / ``partialmethod`` layers and ``__wrapped__``
    chains (``functools.wraps`` decorators) peeled off.  A ``partial``
    is defined in :mod:`functools` as far as :mod:`inspect` can tell,
    and analysing that module instruments nothing."""
    while True:
        inner = inspect.unwrap(app)
        if isinstance(inner, (functools.partial, functools.partialmethod)):
            inner = inner.func
        if inner is app:
            return app
        app = inner


def analyze_app(app: Callable) -> InstrumentationReport:
    """Run ST-Analyzer over the module defining an application callable.

    Analyzing the whole module (rather than the single function) captures
    helper functions the app calls, mirroring the paper's whole-program
    static analysis.
    """
    app = unwrap_app(app)
    module = inspect.getmodule(app)
    if module is not None:
        try:
            return analyze_module(module)
        except (OSError, TypeError):
            pass
    try:
        return analyze_source(inspect.getsource(app))
    except (OSError, TypeError):
        # No retrievable source (REPL / exec'd code): conservative empty
        # report — the caller may fall back to scope="all".
        return InstrumentationReport()
