"""Reachability check: what in ``src/repro/`` does production code reach?

Run ``python tools/reachability.py`` from anywhere; it takes no flags,
prints one verdict line per finding and a tally, and exits 1 on a
finding.  ``tests/test_reachability.py`` runs the same check in tier-1.
The rule it applies is stated in ``docs/REACHABILITY.md``; in brief:

* **Items** are the module-level public functions and classes of
  ``src/``, every method and property (private ones and the protocol
  dunders of :data:`DUNDERS` too), every defaulted parameter of those,
  and every name in an export table of :data:`PACKAGES`.
* **Sites** are read from the AST of ``src/``, ``tools/``,
  ``examples/``, ``benchmarks/`` and ``tests/``, plus a word search of
  the CI workflows and the Makefile.  A method is reached only where
  its receiver resolves to its class, a subclass that inherits it, or a
  base class it overrides.  A receiver resolves through construction,
  an annotation, a one-hop assignment (an unannotated parameter takes
  what its production callers pass) or a quoted-name ``getattr``; one
  that does not resolve still counts, as *unresolved* reach.  The
  callee of a defaulted parameter resolves the same way.  A site inside
  an unreached item does not count (iterated to a fixpoint).
* **Verdict.** An item is kept by a resolved production site (``src/``,
  tools, examples, the benchmarks outside the frozen ``benchmarks/perf/``
  harness, CI).  Anything else -- reached only by tests, the harness or
  unresolved receivers, or by nothing -- needs an entry in :data:`KEEP`
  with a reason from the closed vocabulary of :data:`REASON`, or it is
  a finding.  So is an entry whose symbol is gone or has gained a
  resolved production caller.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

#: symbol -> why it stays although no resolved production site reaches it
KEEP: Dict[str, str] = {
    # what only the frozen benchmark harness calls
    "repro.campaign.monitor.CampaignMonitor.on_point":
        "harness import (ROADMAP 9)",
    "repro.campaign.monitor.CampaignMonitor.on_point(row=)":
        "harness import (ROADMAP 9)",
    "repro.campaign.monitor.write_status": "harness import (ROADMAP 9)",
    "repro.campaign.store.CampaignStore.completed":
        "harness import (ROADMAP 9)",
    "repro.campaign.store.CampaignStore.record_timeseries":
        "harness import (ROADMAP 9)",
    "repro.campaign.fabric.run_fabric(interval=)":
        "harness import (ROADMAP 9)",
    # test seams: a worker's fast poll and short lease, a fixed clock,
    # an in-process CLI, a fault that fires mid-run, a phase and a
    # lifecycle to observe
    "repro.campaign.fabric.spawn_worker(flags=)": "seam",
    "repro.campaign.store.CampaignStore.acquire_leases(now=)": "seam",
    "repro.campaign.store.CampaignStore.close_open_spans(now=)": "seam",
    "repro.campaign.store.CampaignStore.renew_leases(now=)": "seam",
    "repro.cli.main(argv=)": "seam",
    "repro.faults.permanent.random_channel_faults(cycle=)": "seam",
    "repro.network.message.Message.committed": "seam",
    "repro.obs.server.TelemetryServer.running": "seam",
    # oracles: the CRC the FCR corruption tests check against, the
    # dual-engine diff, the metric catalogue, the writer halves of two
    # file formats
    "repro.faults.crc.check_flit": "oracle",
    "repro.faults.crc.crc16": "oracle",
    "repro.faults.crc.flip_bits": "oracle",
    "repro.faults.crc.flit_with_crc": "oracle",
    "repro.verify.equivalence.assert_engines_equivalent": "oracle",
    "repro.verify.equivalence.assert_engines_equivalent(label=)": "oracle",
    "repro.obs.metrics.MetricsRegistry.families": "oracle",
    "repro.obs.alerts.rules_to_json": "oracle",
    "repro.workload.spec.save_workload_trace": "oracle",
    # the public API a script reaches for first; ``torus`` builds the
    # hand-wired networks of the tests
    "repro:engine_metrics": "top-level repro export",
    "repro:parse_prometheus_text": "top-level repro export",
    "repro:run_campaign": "top-level repro export",
    "repro.topology.torus.torus": "top-level repro export",
    "repro.topology.torus.torus(dims=)": "top-level repro export",
    # a sink is anything with ``on_event``; the bus cannot name a class
    "repro.obs.sinks.JsonlSink.on_event":
        "unresolved: src/repro/obs/events.py:199",
    "repro.obs.sinks.ListSink.on_event":
        "unresolved: src/repro/obs/events.py:199",
}

REASON = re.compile(
    r"seam|oracle|harness import \(ROADMAP 9\)|decorator registration"
    r"|framework hook|top-level repro export|ROADMAP \d+"
    r"|unresolved: \S+:\d+"
)
PACKAGES = ("repro", "repro.obs", "repro.campaign", "repro.verify",
            "repro.workload")
DIRS = ("src", "tools", "examples", "benchmarks", "tests")
HARNESS = "benchmarks/perf/"
#: the dunders a statement calls implicitly; other dunders are not items
DUNDERS = frozenset({"__len__", "__iter__", "__contains__", "__bool__",
                     "__getitem__", "__enter__", "__exit__"})
#: methods an external base class calls
ROOTS = {"BaseHTTPRequestHandler": ("do_GET", "log_message")}
#: stdlib modules whose values never hold a repro object
EXTERNAL = frozenset({
    "argparse", "ast", "base64", "binascii", "csv", "datetime", "errno",
    "fnmatch", "gc", "glob", "hashlib", "html", "http", "io", "json",
    "logging", "math", "numpy", "os", "pathlib", "platform", "re",
    "resource", "select", "shlex", "shutil", "signal", "socket",
    "sqlite3", "statistics", "string", "struct", "subprocess", "sys",
    "tempfile", "textwrap", "threading", "time", "traceback",
    "tracemalloc", "urllib", "uuid", "warnings", "zlib",
})
CONTAINERS = frozenset({
    "List", "list", "Sequence", "MutableSequence", "Iterable", "Iterator",
    "Generator", "Collection", "Set", "set", "FrozenSet", "frozenset",
    "AbstractSet", "Deque", "deque", "Tuple", "tuple", "Dict", "dict",
    "Mapping", "MutableMapping", "DefaultDict", "defaultdict",
    "OrderedDict", "Counter", "KeysView", "ValuesView",
})
#: builtins whose result is never a repro object
PLAIN_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "callable", "chr", "float", "format",
    "hasattr", "hash", "id", "int", "isinstance", "issubclass", "len",
    "open", "ord", "print", "range", "repr", "round", "setattr", "str",
    "sum", "bytes", "divmod", "pow", "hex", "bin", "vars", "delattr",
})

Types = Optional[FrozenSet[str]]  # None: unresolved
PLAIN: FrozenSet[str] = frozenset({"X"})
EMPTY: FrozenSet[str] = frozenset()
#: an attribute the class has no trace of (dropped from a union)
ABSENT: FrozenSet[str] = frozenset({"absent"})


def union(parts: Iterable[Types]) -> Types:
    out: Set[str] = set()
    for part in parts:
        if part is None:
            return None
        out |= part
    return frozenset(out)


class Module:
    def __init__(self, rel: str, name: str, kind: str, tree: ast.Module,
                 package: bool):
        self.rel, self.name, self.kind, self.tree = rel, name, kind, tree
        self.package = name if package else name.rpartition(".")[0]
        self.scope = Scope(self, None, None)
        self.exports: Dict[str, str] = {}  # export name -> qualified


class Func:
    def __init__(self, qname: str, node, module: Module, cls, scope):
        self.qname, self.node, self.module, self.cls = qname, node, module, cls
        self.scope = scope
        self.name = node.name
        decorators = {dotted(d) for d in node.decorator_list}
        self.static = "staticmethod" in decorators
        self.classmethod = "classmethod" in decorators
        self.property = bool(decorators & {"property", "cached_property",
                                           "functools.cached_property"}) \
            or any(d.endswith((".setter", ".deleter")) for d in decorators)
        self.contextmanager = bool(decorators & {
            "contextmanager", "contextlib.contextmanager"})
        self.item: Optional[str] = None


class Class:
    def __init__(self, qname: str, node: ast.ClassDef, module: Module,
                 scope):
        self.qname, self.node, self.module, self.scope = (
            qname, node, module, scope)
        self.name = node.name
        self.methods: Dict[str, List[Func]] = defaultdict(list)
        self.fields: Dict[str, ast.expr] = {}
        self.assigns: Dict[str, List[ast.expr]] = defaultdict(list)
        self.bases: List[str] = []  # qualified names, src or external
        self.subclasses: List[Class] = []
        self.protocol = False
        self.item: Optional[str] = None

    def mro(self, index: Dict[str, "Class"]) -> List["Class"]:
        out, todo = [], [self]
        while todo:
            cls = todo.pop(0)
            if cls not in out:
                out.append(cls)
                todo.extend(index[b] for b in cls.bases if b in index)
        return out

    def family(self, index: Dict[str, "Class"]) -> List["Class"]:
        out, todo = [], [self]
        while todo:
            cls = todo.pop()
            if cls not in out:
                out.append(cls)
                todo.extend(cls.subclasses)
        return out


class Scope:
    def __init__(self, module: Module, parent, func: Optional[Func]):
        self.module, self.parent, self.func = module, parent, func
        self.bindings: Dict[str, list] = defaultdict(list)


def dotted(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return ""


def module_name(rel: str) -> Tuple[str, bool]:
    parts = rel[:-3].split("/")
    if parts[0] == "src":
        parts = parts[1:]
    package = parts[-1] == "__init__"
    if package:
        parts = parts[:-1]
    return ".".join(parts), package


class Scanner:
    """One scan of the tree at ``root``."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: Dict[str, Module] = {}
        self.classes: Dict[str, Class] = {}
        self.funcs: Dict[str, Func] = {}
        self.items: Dict[str, Tuple[str, str]] = {}  # key -> (kind, loc)
        self.by_name: Dict[str, List[str]] = defaultdict(list)  # methods
        self.params: Dict[str, List[Tuple[str, int, bool]]] = {}
        self.attr_stores: Dict[str, list] = defaultdict(list)
        self.calls: Dict[str, list] = defaultdict(list)
        self.value_refs: Set[str] = set()  # defs used other than by a call
        self.loose: List[Tuple[Scope, str]] = []
        self.loose_attrs: Set[str] = set()  # attributes read as values
        self.scopes: Dict[int, Scope] = {}  # id(function node) -> scope
        self.memo: Dict[object, Types] = {}
        self.active: Set[object] = set()
        self.cyclic: Set[object] = set()
        self.seed: Dict[object, Types] = {}
        # (target item, enclosing item or None, category, "file:line")
        self.edges: List[Tuple[str, Optional[str], str, str]] = []
        self.reexports: List[Tuple[str, str]] = []
        for rel in self.sources():
            name, package = module_name(rel)
            kind = ("test" if rel.startswith("tests/") else
                    "harness" if rel.startswith(HARNESS) else
                    "src" if rel.startswith("src/") else "prod")
            tree = ast.parse((self.root / rel).read_text(), rel)
            self.modules[name] = Module(rel, name, kind, tree, package)
        for module in self.modules.values():
            Indexer(self, module).visit(module.tree)
        for scope, name in self.loose:
            qname = self.resolve(self.qualify(name, scope))
            if qname in self.funcs or qname in self.classes:
                self.value_refs.add(qname)
        for cls in self.classes.values():
            scope = cls.scope
            cls.bases = [self.qualify(dotted(b), scope)
                         for b in cls.node.bases]
            cls.protocol = any(b.rpartition(".")[2] == "Protocol"
                               for b in cls.bases)
            for base in cls.bases:
                if base in self.classes:
                    self.classes[base].subclasses.append(cls)
        for package in PACKAGES:
            if package in self.modules:
                self.read_exports(self.modules[package])
        self.make_items()
        for outer, inner in self.reexports:
            self.edges.append((inner, outer, "prod", outer))
        for module in self.modules.values():
            Sites(self, module).visit(module.tree)
        self.word_search()

    def sources(self) -> Iterator[str]:
        for top in DIRS:
            for path in sorted((self.root / top).rglob("*.py")):
                yield path.relative_to(self.root).as_posix()

    # -- the index ------------------------------------------------------

    def qualify(self, name: str, scope: Scope) -> str:
        """The qualified name a dotted ``name`` refers to in ``scope``."""
        head, _, rest = name.partition(".")
        while scope is not None:
            for kind, value, *_ in scope.bindings.get(head, ()):
                if kind in ("import", "def"):
                    return f"{value}.{rest}" if rest else value
            scope = scope.parent
        return name

    def read_exports(self, module: Module) -> None:
        table: Dict[str, Tuple[str, ...]] = {}
        defined: List[str] = []
        for node in module.tree.body:
            target = getattr(node, "targets", [None])[0]
            if isinstance(target, ast.Name) and target.id == "_EXPORTS":
                table = ast.literal_eval(node.value)
            elif isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    defined += ast.literal_eval(node.value)
                elif isinstance(node.value, ast.Call):
                    defined += [a.value for a in node.value.args[2:]
                                if isinstance(a, ast.Constant)]
        for sub, names in table.items():
            for name in names:
                module.exports[name] = f"{module.name}.{sub}.{name}"
                if f"{module.name}.{sub}" in PACKAGES:
                    self.reexports.append((f"{module.name}:{name}",
                                           f"{module.name}.{sub}:{name}"))
        for name in defined:
            module.exports.setdefault(name, f"{module.name}.{name}")

    def resolve(self, qname: str, depth: int = 0) -> str:
        """Follow re-exports and import aliases to a definition."""
        if depth > 8 or qname in self.funcs or qname in self.classes \
                or qname in self.modules:
            return qname
        head, _, name = qname.rpartition(".")
        module = self.modules.get(head)
        if module is None:
            outer = self.resolve(head, depth + 1) if head else head
            if outer != head:
                return self.resolve(f"{outer}.{name}", depth + 1)
            return qname
        if name in module.exports and module.exports[name] != qname:
            return self.resolve(module.exports[name], depth + 1)
        for kind, value, *_ in module.scope.bindings.get(name, ()):
            if kind == "import":
                return self.resolve(value, depth + 1)
        return qname

    def make_items(self) -> None:
        for qname, func in self.funcs.items():
            if func.module.kind != "src":
                continue
            loc = f"{func.module.rel}:{func.node.lineno}"
            if func.cls is not None:
                name = func.name
                if (name.startswith("__") and name.endswith("__")
                        and name not in DUNDERS):
                    if name == "__init__":
                        self.add_params(func, func.cls.qname, loc)
                    continue
                func.item = qname
                self.items[qname] = ("method", loc)
                self.by_name[name].append(qname)
            elif "<" not in qname and not func.name.startswith("_") \
                    and qname == f"{func.module.name}.{func.name}":
                func.item = qname
                self.items[qname] = ("function", loc)
            if func.item:
                self.add_params(func, func.item, loc)
        for qname, cls in self.classes.items():
            if (cls.module.kind == "src" and not cls.name.startswith("_")
                    and qname == f"{cls.module.name}.{cls.name}"):
                cls.item = qname
                self.items[qname] = ("class", f"{cls.module.rel}:"
                                     f"{cls.node.lineno}")
        for package in PACKAGES:
            module = self.modules.get(package)
            for name in module.exports if module else ():
                self.items[f"{package}:{name}"] = ("export", module.rel)

    def add_params(self, func: Func, owner: str, loc: str) -> None:
        args = func.node.args
        positional = args.posonlyargs + args.args
        found = []
        for index, arg in enumerate(positional):
            if index >= len(positional) - len(args.defaults):
                found.append((arg.arg, index, True))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((arg.arg, -1, False))
        for name, _, _ in found:
            self.items[f"{owner}({name}=)"] = ("param", loc)
        self.params[func.qname] = found

    def word_search(self) -> None:
        files = sorted((self.root / ".github/workflows").glob("*.yml"))
        files += [p for p in [self.root / "Makefile"] if p.exists()]
        for path in files:
            rel = path.relative_to(self.root).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                loc = f"{rel}:{lineno}"
                for name in re.findall(r"\.([A-Za-z_]\w*)", line):
                    for item in self.by_name.get(name, ()):
                        self.edges.append((item, None, "ci", loc))
                match = re.search(r"from (repro[\w.]*) import ([\w, ]+)", line)
                if match:
                    for name in match.group(2).replace(" ", "").split(","):
                        self.reach_import(match.group(1), name, None, "ci",
                                          loc)

    def reach_import(self, module: str, name: str, enclosing, category,
                     loc) -> None:
        if f"{module}:{name}" in self.items:
            self.edges.append((f"{module}:{name}", enclosing, category, loc))
        target = self.resolve(f"{module}.{name}")
        item = self.def_item(target)
        if item:
            self.edges.append((item, enclosing, category, loc))

    def def_item(self, qname: str) -> Optional[str]:
        """The function or class item ``qname`` names, if any."""
        obj = self.funcs.get(qname) or self.classes.get(qname)
        return obj.item if obj is not None else None

    # -- types ----------------------------------------------------------

    def memoized(self, key, compute) -> Types:
        """``compute()``, once per key.  A key met again while it is
        being computed (``x = x.scaled()``) reads what its first pass
        found and is computed a second time; what depended on it is not
        kept until it is settled."""
        if key in self.memo:
            return self.memo[key]
        if key in self.active:
            self.cyclic.add(key)
            return self.seed.get(key, EMPTY)
        self.active.add(key)
        value = compute()
        if key in self.cyclic:
            self.seed[key] = value
            value = compute()
            self.cyclic.discard(key)
            del self.seed[key]
        self.active.discard(key)
        if not self.cyclic:
            self.memo[key] = value
        return value

    def qual_type(self, qname: str) -> Types:
        qname = self.resolve(qname)
        if qname in self.classes:
            return frozenset({"T:" + qname})
        if qname in self.funcs:
            return frozenset({"F:" + qname})
        if qname in self.modules:
            return frozenset({"M:" + qname})
        head, _, name = qname.rpartition(".")
        if head in self.modules:
            module = self.modules[head]
            if name in module.scope.bindings:
                return self.name_type(name, module.scope)
            return None
        if qname.startswith("repro"):
            return None
        if qname in ("importlib.import_module", "types.ModuleType"):
            return frozenset({"Y:" + qname})
        root = qname.split(".")[0]
        return PLAIN if root in EXTERNAL else frozenset({"Y:" + qname})

    def name_type(self, name: str, scope: Scope) -> Types:
        found = scope
        while found is not None and name not in found.bindings:
            found = found.parent
        if found is None:
            if hasattr(builtins, name):
                return frozenset({"B:" + name})
            return None
        bindings = found.bindings[name]
        declared = [b for b in bindings if b[0] in ("ann", "param")]
        stored = [b for b in bindings if b[0] not in ("ann", "param")]
        return self.memoized(
            (id(found), name),
            lambda: self.target_types(
                [self.binding_type(b, found) for b in declared],
                [self.binding_type(b, found) for b in stored]))

    @staticmethod
    def target_types(declared: List[Types], stored: List[Types]) -> Types:
        """An undeclared target holds what is stored in it.  A declared
        type holds for every assignment, and an instance stored there
        adds its class even when the annotation names another
        (``x: Base = Duck()``)."""
        if not declared:
            return union(stored)
        types = union(declared)
        if types is None:
            return None
        return types | {t for part in stored if part is not None
                        for t in part if t.startswith("C:")}

    def binding_type(self, binding, scope: Scope) -> Types:
        kind, value, *rest = binding
        if kind == "import" or kind == "def":
            return self.qual_type(value)
        if kind == "expr":
            return self.expr(value, scope)
        if kind == "ann":
            return self.annotation(value, scope.module)
        if kind == "param":
            return self.param_type(value, rest[0])
        if kind == "iter":
            return self.element(self.expr(value, scope))
        if kind == "unpack":
            return self.unpack(value, scope, rest[0])
        if kind == "iterunpack":
            return self.pair(self.element(self.expr(value, scope)), rest[0])
        if kind == "with":
            return self.entered(value, scope)
        return None

    def unpack(self, value, scope, index: int) -> Types:
        if isinstance(value, (ast.Tuple, ast.List)):
            if index < len(value.elts) and not any(
                    isinstance(e, ast.Starred) for e in value.elts):
                return self.expr(value.elts[index], scope)
            return None
        return self.pair(self.expr(value, scope), index)

    def pair(self, types: Types, index: int) -> Types:
        if types is None:
            return None
        out = set()
        for token in types:
            if token == "X":
                out.add(token)
            elif token.startswith("P:") and index == 1:
                out.add(token[2:])
            elif token.startswith("L:") and token != "L:?":
                out.add(token[2:])  # a Tuple[...]: the union of its members
            else:
                return None
        return frozenset(out)

    def entered(self, value, scope) -> Types:
        if isinstance(value, ast.Call):
            callee = self.expr(value.func, scope)
            if callee and all(t.startswith(("F:", "BF:")) for t in callee):
                funcs = [self.funcs[t.split(":", 1)[1]] for t in callee]
                if all(f.contextmanager for f in funcs):
                    return union(self.element(self.returns(f)) for f in funcs)
        types = self.expr(value, scope)
        if types is None:
            return None
        out = []
        for token in types:
            if token.startswith("C:"):
                enter = self.lookup(token[2:], "__enter__")
                out.append(self.returns(enter[0]) if enter else None)
            else:
                out.append(PLAIN if token == "X" else None)
        return union(out)

    def element(self, types: Types) -> Types:
        if types is None:
            return None
        out = []
        for token in types:
            if token.startswith("L:"):
                out.append(None if token == "L:?" else frozenset({token[2:]}))
            elif token == "X":
                out.append(PLAIN)
            elif token.startswith("T:"):
                out.append(frozenset({"C:" + token[2:]}))
            elif token.startswith("C:"):
                it = self.lookup(token[2:], "__iter__")
                out.append(self.element(self.returns(it[0])) if it else None)
            else:
                out.append(None)
        return union(out)

    def annotation(self, node, module: Module) -> Types:
        if node is None:
            return None
        key = ("ann", id(node))
        return self.memoized(key, lambda: self._annotation(node, module))

    def _annotation(self, node, module: Module) -> Types:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return PLAIN
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self._annotation(parsed, module)
            return PLAIN
        if isinstance(node, ast.BinOp):  # A | B
            return union([self._annotation(node.left, module),
                          self._annotation(node.right, module)])
        if isinstance(node, ast.Subscript):
            head = dotted(node.value).rpartition(".")[2]
            inner = node.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            if head in ("Optional", "Union"):
                return union(self._annotation(a, module) for a in args)
            if head in ("ClassVar", "Final", "Annotated"):
                return self._annotation(args[0], module)
            if head in ("Type", "type"):  # the class or any subclass
                sub = self._annotation(args[0], module)
                return sub and frozenset(
                    "T:" + c.qname for t in sub if t.startswith("C:")
                    for c in self.classes[t[2:]].family(self.classes)) or sub
            if head in CONTAINERS or head in ("Generator", "AsyncIterator"):
                # a mapping's keys and values share one element type
                if head == "Generator":
                    args = args[:1]
                args = [a for a in args if not (
                    isinstance(a, ast.Constant) and a.value is Ellipsis)]
                inner_types = union(self._annotation(a, module) for a in args)
                if inner_types is None:
                    return frozenset({"L:?"})
                return frozenset("L:" + t for t in inner_types)
            if head == "Callable":
                return None
            return self._annotation(node.value, module)
        name = dotted(node)
        if not name:
            return None
        short = name.rpartition(".")[2]
        if short in ("Any", "object", "TypeVar", "type", "Type"):
            return None
        qname = self.resolve(self.qualify(name, module.scope))
        if qname in self.classes:
            return frozenset({"C:" + qname})
        if short in CONTAINERS:
            return frozenset({"L:?"})
        head, _, tail = qname.rpartition(".")
        home = self.modules.get(head) if head else module
        aliases = [b[1] for b in home.scope.bindings.get(tail, ())
                   if b[0] == "expr"] if home else []
        if aliases:  # a type alias
            return union(self._annotation(v, home) for v in aliases)
        if "." not in qname and hasattr(builtins, qname):
            return PLAIN
        types = self.qual_type(qname)
        if types is None:
            return None
        out = set()
        for token in types:
            if token.startswith("T:"):
                out.add("C:" + token[2:])
            elif token in ("Y:types.ModuleType",):
                out.add("M:*")
            elif token.startswith(("Y:", "B:")) or token == "X":
                out.add("X" if token.startswith("B:") or token == "X"
                        else token)
            else:
                return None
        return frozenset(out)

    def lookup(self, cls_name: str, attr: str) -> List[Func]:
        """``attr``'s method definition as ``cls_name`` resolves it."""
        cls = self.classes.get(cls_name)
        for klass in cls.mro(self.classes) if cls else ():
            if attr in klass.methods:
                return klass.methods[attr]
        return []

    def returns(self, func: Func) -> Types:
        return self.memoized(("ret", func.qname), lambda: self._returns(func))

    def _returns(self, func: Func) -> Types:
        node = func.node
        if node.returns is not None:
            return self.annotation(node.returns, func.module)
        scope = func.scope
        values, yields = [], []
        for sub in walk_body(node):
            if isinstance(sub, ast.Return):
                values.append(sub.value)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                yields.append(sub)
        if yields:
            return frozenset({"L:?"})
        if not values:
            return PLAIN
        return union(PLAIN if v is None else self.expr(v, scope)
                     for v in values)

    def param_type(self, func: Func, arg: ast.arg) -> Types:
        if arg.annotation is not None:
            types = self.annotation(arg.annotation, func.module)
            if types is not None and (arg is func.node.args.vararg
                                      or arg is func.node.args.kwarg):
                return frozenset("L:" + t for t in types)
            return types
        args = func.node.args
        positional = args.posonlyargs + args.args
        if (func.cls is not None and not func.static and positional
                and arg is positional[0]):
            prefix = "T:" if func.classmethod or func.name == "__new__" \
                else "C:"
            return frozenset({prefix + func.cls.qname})
        if arg is args.vararg or arg is args.kwarg:
            return frozenset({"L:?"})
        return self.memoized(("param", func.qname, arg.arg),
                             lambda: self.callers_pass(func, arg))

    def callers_pass(self, func: Func, arg: ast.arg) -> Types:
        """The union of what every production call of ``func`` passes
        as ``arg``; unresolved if ``func`` escapes as a value."""
        owner = func.cls.qname if func.name == "__init__" else func.qname
        if (owner in self.value_refs or "<" in func.qname
                or func.name != "__init__" and func.name in self.loose_attrs):
            return None  # it escapes as a value: any caller may pass anything
        args = func.node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        bound = func.cls is not None and not func.static
        names = ([c.name for c in func.cls.family(self.classes)]
                 + ["__init__"] if func.name == "__init__" else [func.name])
        seen = []
        for name in names:
            for scope, call in self.calls.get(name, ()):
                callee = self.expr(call.func, scope)
                if callee is not None and not any(
                        self.dispatches(t, func) for t in callee):
                    continue
                passed = match_arg(call, positional, arg.arg, bound
                                   and not (callee and any(
                                       t.startswith("F:") for t in callee)
                                            and func.name != "__init__"))
                if passed is False:
                    seen.append(None)
                elif passed is not None:
                    seen.append(self.expr(passed, scope))
                else:
                    default = default_of(func.node, arg)
                    if default is not None:
                        seen.append(self.expr(default, func.module.scope))
        if not seen:
            return None
        return union(seen)

    def dispatches(self, token: str, func: Func) -> bool:
        """Can a call through ``token`` run ``func``?"""
        kind, _, qname = token.partition(":")
        if kind in ("F", "BF"):
            target = self.funcs.get(qname)
            if target is None or target.name != func.name:
                return False
            if target is func:
                return True
            if target.cls is None or func.cls is None:
                return False
            return func.cls in target.cls.family(self.classes)
        if kind == "T" and func.name == "__init__":
            cls = self.classes.get(qname)
            return cls is not None and func in self.lookup(qname, "__init__")
        return False

    def expr(self, node, scope: Scope) -> Types:
        return self.memoized(id(node), lambda: self._expr(node, scope))

    def _expr(self, node, scope: Scope) -> Types:
        if isinstance(node, ast.Name):
            return self.name_type(node.id, scope)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.expr(node.value, scope), node.attr)
        if isinstance(node, ast.Call):
            return self.call(node, scope)
        if isinstance(node, (ast.Constant, ast.JoinedStr, ast.Compare)):
            return PLAIN
        if isinstance(node, ast.Tuple) and not node.elts:
            return PLAIN  # nothing to iterate, and it cannot grow
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return self.collection([e for e in node.elts], scope)
        if isinstance(node, ast.Dict):
            return self.collection(node.values, scope)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.collection([node.elt], scope)
        if isinstance(node, ast.DictComp):
            return self.collection([node.value], scope)
        if isinstance(node, ast.IfExp):
            return union([self.expr(node.body, scope),
                          self.expr(node.orelse, scope)])
        if isinstance(node, ast.BoolOp):
            return union(self.expr(v, scope) for v in node.values)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            parts = ([node.left, node.right] if isinstance(node, ast.BinOp)
                     else [node.operand])
            types = union(self.expr(p, scope) for p in parts)
            return PLAIN if types == PLAIN else None
        if isinstance(node, ast.Subscript):
            base = self.expr(node.value, scope)
            if isinstance(node.slice, ast.Slice):
                return base
            return self.subscript(base)
        if isinstance(node, ast.NamedExpr):
            return self.expr(node.value, scope)
        return None

    def collection(self, elements, scope) -> Types:
        if not elements or any(isinstance(e, ast.Starred) or e is None
                               for e in elements):
            return frozenset({"L:?"})
        inner = union(self.expr(e, scope) for e in elements)
        if inner is None:
            return frozenset({"L:?"})
        return frozenset("L:" + t for t in inner)

    def subscript(self, base: Types) -> Types:
        if base is None:
            return None
        out = []
        for token in base:
            if token.startswith("L:"):
                out.append(None if token == "L:?" else frozenset({token[2:]}))
            elif token == "X" or token.startswith("T:"):
                out.append(PLAIN if token == "X" else frozenset({token}))
            elif token.startswith("C:"):
                get = self.lookup(token[2:], "__getitem__")
                out.append(self.returns(get[0]) if get else None)
            else:
                out.append(None)
        return union(out)

    def attribute(self, base: Types, attr: str) -> Types:
        if base is None:
            return None
        out = []
        for token in base:
            kind, _, rest = token.partition(":")
            if token == "X":
                out.append(PLAIN)
            elif kind == "M":
                out.append(None if rest == "*"
                           else self.qual_type(f"{rest}.{attr}"))
            elif kind == "C":
                out.append(self.instance_attr(rest, attr))
            elif kind == "T":
                funcs = self.lookup(rest, attr)
                if funcs:
                    f = funcs[0]
                    out.append(frozenset({("BF:" if f.classmethod else "F:")
                                          + f.qname}))
                else:
                    out.append(self.instance_attr(rest, attr))
            elif kind == "Y":
                out.append(frozenset({f"Y:{rest}.{attr}"}))
            elif kind == "L" and attr in ("values", "items", "get", "pop",
                                          "popleft", "setdefault", "copy",
                                          "keys"):
                out.append(frozenset({f"LM:{attr}:{rest}"}))
            elif kind in ("L", "B", "F", "BF"):
                out.append(PLAIN)
            else:
                out.append(None)
        present = [types for types in out if types is not ABSENT]
        return union(present) if present or not out else None

    def instance_attr(self, cls_name: str, attr: str) -> Types:
        return self.memoized(("attr", cls_name, attr),
                             lambda: self._instance_attr(cls_name, attr))

    def _instance_attr(self, cls_name: str, attr: str) -> Types:
        cls = self.classes[cls_name]
        mro = cls.mro(self.classes)
        for klass in mro:
            if attr in klass.methods:
                func = klass.methods[attr][0]
                if func.property:
                    return self.returns(func)
                if func.static:
                    return frozenset({"F:" + func.qname})
                return frozenset({"BF:" + func.qname})
        found: List[Types] = []
        family = set(map(id, mro)) | set(
            map(id, cls.family(self.classes)))
        for klass in mro:
            if attr in klass.fields:
                found.append(self.annotation(klass.fields[attr],
                                             klass.module))
            for value in klass.assigns.get(attr, ()):
                found.append(self.expr(value, klass.scope))
        if not found:
            stores = []
            for scope, obj, value, annotated in self.attr_stores.get(attr, ()):
                types = self.expr(obj, scope)
                if types is not None and any(
                        t.startswith("C:") and t[2:] in self.classes
                        and id(self.classes[t[2:]]) in family for t in types):
                    stores.append((scope, value, annotated))
            if stores:
                found.append(self.target_types(
                    [self.annotation(value, scope.module)
                     for scope, value, annotated in stores if annotated],
                    [self.expr(value, scope)
                     for scope, value, annotated in stores
                     if not annotated]))
        if not found and any(b not in self.classes and b.rpartition(".")[2]
                             not in ("object", "ABC", "Generic", "Protocol")
                             for k in mro for b in k.bases):
            return PLAIN  # an attribute the external base defines
        if not found:
            return ABSENT
        return union(found)

    def call(self, node: ast.Call, scope: Scope) -> Types:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "super" \
                and scope.func is not None and scope.func.cls is not None:
            # the enclosing class's bases; a nested scope is rare enough
            bases = [b for b in scope.func.cls.bases if b in self.classes]
            return frozenset("C:" + b for b in bases) if bases else None
        callee = self.expr(func, scope)
        if callee is None:
            return None
        args = node.args
        first = args[0] if args and not isinstance(args[0], ast.Starred) \
            else None
        out: List[Types] = []
        for token in callee:
            kind, _, rest = token.partition(":")
            if kind == "T":
                out.append(frozenset({"C:" + rest}))
            elif kind in ("F", "BF"):
                out.append(self.returns(self.funcs[rest]))
            elif kind == "C":
                it = self.lookup(rest, "__call__")
                out.append(self.returns(it[0]) if it else None)
            elif kind == "B":
                out.append(self.builtin_call(rest, node, scope))
            elif kind == "Y":
                out.append(self.external_call(rest, node, scope, first))
            elif kind == "LM":
                attr, _, inner = rest.partition(":")
                if attr in ("values", "copy"):
                    out.append(frozenset({"L:" + inner}))
                elif attr == "items":
                    out.append(frozenset({"L:P:" + inner}))
                elif attr == "keys":
                    out.append(frozenset({"L:?"}))
                else:
                    got = None if inner == "?" else frozenset({inner})
                    if attr in ("get", "setdefault") and len(args) > 1:
                        got = union([got, self.expr(args[1], scope)])
                    out.append(got)
            elif token == "X":
                out.append(PLAIN)
            else:
                out.append(None)
        return union(out)

    def builtin_call(self, name: str, node: ast.Call, scope) -> Types:
        args = node.args
        if any(isinstance(a, ast.Starred) for a in args):
            return None
        if name in PLAIN_BUILTINS:
            return PLAIN
        if name == "getattr" and len(args) >= 2 and isinstance(
                args[1], ast.Constant) and isinstance(args[1].value, str):
            got = self.attribute(self.expr(args[0], scope), args[1].value)
            return union([got] + [self.expr(a, scope) for a in args[2:]])
        if name in ("list", "tuple", "set", "frozenset", "sorted",
                    "reversed", "iter"):
            if not args:
                return frozenset({"L:?"})
            inner = self.element(self.expr(args[0], scope))
            return frozenset("L:" + t for t in inner) \
                if inner is not None else frozenset({"L:?"})
        if name == "filter" and len(args) == 2:
            inner = self.element(self.expr(args[1], scope))
            return frozenset("L:" + t for t in inner) \
                if inner is not None else frozenset({"L:?"})
        if name in ("min", "max"):
            if len(args) == 1:
                return self.element(self.expr(args[0], scope))
            return union(self.expr(a, scope) for a in args)
        if name == "next" and args:
            return union([self.element(self.expr(args[0], scope))]
                         + [self.expr(a, scope) for a in args[1:]])
        if name == "enumerate" and args:
            inner = self.element(self.expr(args[0], scope))
            return frozenset("L:P:" + t for t in inner) \
                if inner is not None else frozenset({"L:?"})
        if name == "type" and len(args) == 1:
            inner = self.expr(args[0], scope)
            return inner and frozenset(
                "T:" + t[2:] if t.startswith("C:") else t for t in inner)
        if name in ("dict", "zip", "map"):
            return frozenset({"L:?"})
        return None

    def external_call(self, name: str, node: ast.Call, scope, first) -> Types:
        short = name.rpartition(".")[2]
        if name == "importlib.import_module":
            return frozenset({"M:*"})
        if short in ("copy", "deepcopy", "replace") and first is not None:
            return self.expr(first, scope)
        if short == "cast" and first is not None:
            return self.annotation(first, scope.module)
        if short in ("choice", "heappop") and first is not None:
            return self.element(self.expr(first, scope))
        if short in ("deque", "defaultdict", "OrderedDict", "Counter",
                     "chain", "islice", "sample"):
            return frozenset({"L:?"})
        if name.split(".")[0] == "random":
            return PLAIN
        return None


def walk_body(node) -> Iterator[ast.AST]:
    """The nodes of a function body, not descending into nested scopes."""
    todo = list(node.body)
    while todo:
        sub = todo.pop()
        yield sub
        for child in ast.iter_child_nodes(sub):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Lambda)):
                todo.append(child)


def default_of(node, arg: ast.arg):
    args = node.args
    positional = args.posonlyargs + args.args
    if arg in positional:
        offset = len(positional) - len(args.defaults)
        index = positional.index(arg)
        return args.defaults[index - offset] if index >= offset else None
    if arg in args.kwonlyargs:
        return args.kw_defaults[args.kwonlyargs.index(arg)]
    return None


def match_arg(call: ast.Call, positional: List[str], name: str,
              bound: bool):
    """The expression ``call`` passes as ``name``; ``False`` if it may
    pass it through ``*args`` / ``**kwargs``; ``None`` if it does not."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if name in positional:
        index = positional.index(name) - (1 if bound else 0)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return False if i <= index else None
            if i == index:
                return arg
    if any(k.arg is None for k in call.keywords):
        return False
    return None


def passes(call: ast.Call, params, bound: bool) -> List[str]:
    """The defaulted ``params`` (name, index, positional) ``call`` passes."""
    out = []
    starred = next((i for i, a in enumerate(call.args)
                    if isinstance(a, ast.Starred)), None)
    npos = len(call.args) if starred is None else starred
    keywords = {k.arg for k in call.keywords}
    for name, index, positional in params:
        at = index - (1 if bound else 0)
        if name in keywords or None in keywords:
            out.append(name)
        elif positional and at >= 0 and (at < npos or starred is not None):
            out.append(name)
    return out


class Indexer(ast.NodeVisitor):
    """Defines every scope, binding, class, function, attribute store and
    call of one module."""

    def __init__(self, scanner: Scanner, module: Module):
        self.s, self.module = scanner, module
        self.scope = module.scope
        self.prefix = module.name
        self.cls: Optional[Class] = None
        self.called: Set[int] = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self.called \
                and self.module.kind != "test":
            self.s.loose.append((self.scope, node.id))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self.called \
                and self.module.kind != "test":
            self.s.loose_attrs.add(node.attr)
        self.visit(node.value)

    def bind(self, target, kind: str, value, index: Optional[int] = None):
        if isinstance(target, ast.Name):
            if index is None:
                self.scope.bindings[target.id].append((kind, value))
            else:
                self.scope.bindings[target.id].append(
                    ("iterunpack" if kind == "iter" else "unpack", value,
                     index))
        elif isinstance(target, (ast.Tuple, ast.List)) and index is None:
            literal = isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts) == len(target.elts)
            for i, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.bind(element, kind, value, i)
                elif literal and kind == "expr":
                    self.bind(element, kind, value.elts[i])
                else:
                    self.bind_unknown(element)
        elif isinstance(target, ast.Attribute) and index is None \
                and self.module.kind != "test" and kind == "expr":
            self.s.attr_stores[target.attr].append(
                (self.scope, target.value, value, False))
        elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            self.bind_unknown(target)

    def bind_unknown(self, target):
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.scope.bindings[node.id].append(("unknown", None))

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.scope.bindings[alias.asname].append(
                    ("import", alias.name))
            else:
                head = alias.name.split(".")[0]
                self.scope.bindings[head].append(("import", head))

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            package = self.module.package.split(".")
            package = package[:len(package) - node.level + 1]
            base = ".".join(package + ([base] if base else []))
        for alias in node.names:
            self.scope.bindings[alias.asname or alias.name].append(
                ("import", f"{base}.{alias.name}"))

    def visit_ClassDef(self, node):
        qname = f"{self.prefix}.{node.name}"
        cls = Class(qname, node, self.module, self.scope)
        if self.module.kind != "test":
            self.s.classes.setdefault(qname, cls)
        self.scope.bindings[node.name].append(("def", qname))
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name):
                cls.fields[sub.target.id] = sub.annotation
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        cls.assigns[target.id].append(sub.value)
        outer = (self.prefix, self.cls)
        self.prefix, self.cls = qname, cls
        for sub in node.body:
            self.visit(sub)
        self.prefix, self.cls = outer
        self.called.update(id(b) for b in node.bases)
        for expr in node.bases + node.decorator_list:
            self.visit(expr)

    def visit_FunctionDef(self, node):
        cls = self.cls
        in_class = cls is not None and self.scope is cls.scope
        qname = f"{self.prefix}.{node.name}"
        if not in_class and self.scope is not self.module.scope:
            qname = f"{self.prefix}.<{node.name}@{node.lineno}>"
        scope = Scope(self.module, self.scope, None)
        func = Func(qname, node, self.module, cls if in_class else None, scope)
        scope.func = func
        self.s.scopes[id(node)] = scope
        if self.module.kind != "test":
            self.s.funcs.setdefault(qname, func)
        if in_class:
            cls.methods[node.name].append(func)
        else:
            self.scope.bindings[node.name].append(("def", qname))
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + [a for a in (args.vararg, args.kwarg) if a]):
            scope.bindings[arg.arg].append(("param", func, arg))
        for expr in (node.decorator_list + args.defaults
                     + [d for d in args.kw_defaults if d]):
            self.visit(expr)
        outer = (self.scope, self.prefix, self.cls)
        self.scope, self.prefix, self.cls = scope, qname, None
        for sub in node.body:
            self.visit(sub)
        self.scope, self.prefix, self.cls = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        scope = Scope(self.module, self.scope, None)
        self.s.scopes[id(node)] = scope
        for arg in node.args.args + node.args.kwonlyargs:
            scope.bindings[arg.arg].append(("unknown", None))
        outer, self.scope = self.scope, scope
        self.visit(node.body)
        self.scope = outer

    def visit_Assign(self, node):
        for target in node.targets:
            self.bind(target, "expr", node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if isinstance(node.target, ast.Name):
            self.scope.bindings[node.target.id].append(
                ("ann", node.annotation))
        elif isinstance(node.target, ast.Attribute) \
                and self.module.kind != "test":
            self.s.attr_stores[node.target.attr].append(
                (self.scope, node.target.value, node.annotation, True))
        if node.value is not None:
            self.bind(node.target, "expr", node.value)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_NamedExpr(self, node):
        self.bind(node.target, "expr", node.value)
        self.generic_visit(node)

    def visit_For(self, node):
        self.bind(node.target, "iter", node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node):
        self.bind(node.target, "iter", node.iter)
        self.generic_visit(node)

    def visit_With(self, node):
        for item in node.items:
            if item.optional_vars is not None:
                if isinstance(item.optional_vars, ast.Name):
                    self.scope.bindings[item.optional_vars.id].append(
                        ("with", item.context_expr))
                else:
                    self.bind_unknown(item.optional_vars)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_ExceptHandler(self, node):
        if node.name:
            self.scope.bindings[node.name].append(("ann", node.type))
        self.generic_visit(node)

    def visit_Call(self, node):
        self.called.add(id(node.func))
        if isinstance(node.func, ast.Name) and node.func.id in (
                "isinstance", "issubclass"):
            self.called.update(id(a) for a in node.args[1:])
        if self.module.kind != "test":
            name = (node.func.id if isinstance(node.func, ast.Name) else
                    node.func.attr if isinstance(node.func, ast.Attribute)
                    else None)
            if name:
                self.s.calls[name].append((self.scope, node))
        self.generic_visit(node)


class Sites(ast.NodeVisitor):
    """Turns every site of one module into reach edges."""

    def __init__(self, scanner: Scanner, module: Module):
        self.s, self.module = scanner, module
        self.scope = module.scope
        self.enclosing: Optional[str] = None
        self.cls: Optional[Class] = None
        self.category = {"src": "prod", "prod": "prod"}.get(
            module.kind, module.kind)
        # what an unresolved receiver counts as here
        self.unresolved = ("unresolved" if self.category == "prod"
                           else self.category)

    def edge(self, item: str, node, category: Optional[str] = None):
        self.s.edges.append((item, self.enclosing, category or self.category,
                             f"{self.module.rel}:{node.lineno}"))

    def typed(self, node) -> Types:
        if self.module.kind != "test":
            return self.s.expr(node, self.scope)
        if isinstance(node, ast.Name):  # a test reads modules only
            qname = self.s.resolve(self.s.qualify(node.id, self.scope))
            if qname in self.s.modules:
                return frozenset({"M:" + qname})
        return None

    def reach_attr(self, receiver: Types, attr: str, node) -> None:
        """The method / property / module-level items ``receiver.attr``
        reaches."""
        s = self.s
        if receiver is None:
            for item in s.by_name.get(attr, ()):
                self.edge(item, node, self.unresolved)
            return
        for token in receiver:
            kind, _, rest = token.partition(":")
            if kind == "M":
                if rest == "*":
                    for qname, func in s.funcs.items():
                        if func.item and func.cls is None \
                                and func.name == attr:
                            self.edge(func.item, node)
                    continue
                if rest in PACKAGES and f"{rest}:{attr}" in s.items:
                    self.edge(f"{rest}:{attr}", node)
                item = s.def_item(s.resolve(f"{rest}.{attr}"))
                if item:
                    self.edge(item, node)
            elif kind in ("C", "T") and rest in s.classes:
                for item in self.methods(rest, attr):
                    self.edge(item, node)

    def methods(self, cls_name: str, attr: str) -> List[str]:
        """The items a call of ``attr`` on a ``cls_name`` may run."""
        s = self.s
        cls = s.classes[cls_name]
        if cls.protocol:
            needed = set(cls.methods)
            family = [c for c in s.classes.values()
                      if needed <= set(c.methods)]
        else:
            family = cls.family(s.classes)
        out = [f.item for f in s.lookup(cls_name, attr) if f.item]
        for sub in family:
            out += [f.item for f in sub.methods.get(attr, ()) if f.item]
        return out

    def visit_ClassDef(self, node):
        qname = f"{self.cls.qname if self.cls else self.prefix()}.{node.name}"
        cls = self.s.classes.get(qname)
        outer = (self.enclosing, self.cls)
        if cls is not None and self.module.kind == "src":
            self.enclosing = cls.item or self.enclosing
            for base in cls.bases:
                for name, methods in ROOTS.items():
                    if base.rpartition(".")[2] == name:
                        for method in methods:
                            for f in cls.methods.get(method, ()):
                                self.s.edges.append((f.item, None, "prod",
                                                     "root"))
        self.cls = cls
        for expr in node.bases + node.keywords + node.decorator_list:
            self.visit(expr)
        for sub in node.body:
            self.visit(sub)
        self.enclosing, self.cls = outer

    def prefix(self) -> str:
        func = self.scope.func
        return func.qname if func else self.module.name

    def visit_FunctionDef(self, node):
        scope = self.s.scopes[id(node)]
        func = scope.func
        outer = (self.scope, self.enclosing, self.cls)
        if self.module.kind == "src":
            if func.item:
                self.enclosing = func.item
            elif func.cls is not None and func.cls.item:
                self.enclosing = func.cls.item
        args = node.args
        for expr in (node.decorator_list + args.defaults
                     + [d for d in args.kw_defaults if d]):
            self.visit(expr)
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        self.scope, self.cls = scope, None
        for sub in node.body:
            self.visit(sub)
        self.scope, self.enclosing, self.cls = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        outer, self.scope = self.scope, self.s.scopes[id(node)]
        self.visit(node.body)
        self.scope = outer

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load):
            return
        scope = self.scope
        while scope is not None and node.id not in scope.bindings:
            scope = scope.parent
        if scope is None:
            return
        for kind, value, *_ in scope.bindings[node.id]:
            if kind in ("import", "def"):
                item = self.s.def_item(self.s.resolve(value))
                if item:
                    self.edge(item, node)

    def visit_Attribute(self, node):
        self.reach_attr(self.typed(node.value), node.attr, node)
        self.visit(node.value)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            package = self.module.package.split(".")
            base = ".".join(package[:len(package) - node.level + 1]
                            + ([base] if base else []))
        for alias in node.names:
            name = f"{base}:{alias.name}"
            if name in self.s.items:
                self.edge(name, node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
                "getattr", "hasattr", "setattr") and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            self.reach_attr(self.typed(node.args[0]), node.args[1].value, node)
        if isinstance(func, ast.Name) and func.id in self.ITERATE \
                and node.args:
            self.dunder(node.args[0], ("__iter__",), node)
        if isinstance(func, ast.Name) and func.id == "len" and node.args:
            self.dunder(node.args[0], ("__len__",), node)
        if isinstance(func, ast.Name) and func.id == "bool" and node.args:
            self.dunder(node.args[0], ("__bool__", "__len__"), node)
        self.reach_params(node)
        self.generic_visit(node)

    ITERATE = frozenset({"list", "tuple", "set", "frozenset", "sorted",
                         "sum", "min", "max", "any", "all", "enumerate",
                         "zip", "iter", "dict", "reversed", "map", "filter"})

    def reach_params(self, node: ast.Call) -> None:
        s = self.s
        callee = self.typed(node.func)
        if callee is None and isinstance(node.func, ast.Name):
            qname = s.resolve(s.qualify(node.func.id, self.scope))
            callee = s.qual_type(qname) if qname != node.func.id else None
        if callee is None:
            if isinstance(node.func, ast.Attribute):
                for item in s.by_name.get(node.func.attr, ()):
                    func = s.funcs[item]
                    for name in passes(node, s.params.get(item, ()),
                                       not func.static):
                        self.edge(f"{item}({name}=)", node, self.unresolved)
            return
        for token in callee:
            kind, _, rest = token.partition(":")
            targets: List[Tuple[Func, bool]] = []
            if kind == "T" and rest in s.classes:
                for sub in s.classes[rest].family(s.classes)[:1]:
                    targets += [(f, True) for f in s.lookup(sub.qname,
                                                            "__init__")]
            elif kind in ("F", "BF") and rest in s.funcs:
                func = s.funcs[rest]
                targets.append((func, kind == "BF"))
                if func.cls is not None:
                    for sub in func.cls.family(s.classes)[1:]:
                        targets += [(f, kind == "BF")
                                    for f in sub.methods.get(func.name, ())]
            for func, bound in targets:
                owner = (func.cls.item or func.cls.qname
                         if func.name == "__init__" else func.item)
                if not owner:
                    continue
                for name in passes(node, s.params.get(func.qname, ()),
                                   bound):
                    self.edge(f"{owner}({name}=)", node)

    def dunder(self, operand, names, node) -> None:
        receiver = self.typed(operand)
        if receiver is not None and not any(
                t.startswith(("C:", "T:")) for t in receiver):
            return
        for name in names:
            self.reach_attr(receiver, name, node)

    def visit_For(self, node):
        self.dunder(node.iter, ("__iter__",), node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node):
        self.dunder(node.iter, ("__iter__",), node.iter)
        for cond in node.ifs:
            self.dunder(cond, ("__bool__", "__len__"), cond)
        self.generic_visit(node)

    def visit_Compare(self, node):
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                self.dunder(right, ("__contains__",), node)
        self.generic_visit(node)

    def visit_With(self, node):
        for item in node.items:
            self.dunder(item.context_expr, ("__enter__", "__exit__"), node)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Subscript(self, node):
        if isinstance(node.ctx, ast.Load) and not isinstance(
                node.slice, ast.Slice):
            self.dunder(node.value, ("__getitem__",), node)
        self.generic_visit(node)

    def truth(self, test) -> None:
        self.dunder(test, ("__bool__", "__len__"), test)

    def visit_If(self, node):
        self.truth(node.test)
        self.generic_visit(node)

    visit_While = visit_IfExp = visit_Assert = visit_If

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not):
            self.truth(node.operand)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        for value in node.values:
            self.truth(value)
        self.generic_visit(node)

    def visit_Starred(self, node):
        self.dunder(node.value, ("__iter__",), node)
        self.generic_visit(node)

    def visit_YieldFrom(self, node):
        self.dunder(node.value, ("__iter__",), node)
        self.generic_visit(node)


class Report:
    """The verdicts of one scan against one keep table."""

    def __init__(self, scanner: Scanner, keep: Dict[str, str]):
        self.items = scanner.items
        self.keep = keep
        kept = {k for k in keep if k in self.items}
        resolved = self.reached(scanner.edges, set(), ("prod",))
        live = self.reached(scanner.edges, kept, ("prod", "ci"))
        self.resolved = resolved
        self.reach: Dict[str, Dict[str, List[str]]] = defaultdict(
            lambda: defaultdict(list))
        for item, enclosing, category, loc in scanner.edges:
            if enclosing is None or enclosing in live or enclosing in kept:
                self.reach[item][category].append(loc)
        self.findings: List[str] = []
        for item in sorted(self.items):
            if item not in live and item not in kept:
                self.findings.append(
                    f"dead: {item} ({self.items[item][1]}){self.where(item)}")
        for item, reason in sorted(keep.items()):
            if item not in self.items:
                self.findings.append(f"gone: {item} is kept for '{reason}' "
                                     "but is no longer an item")
            elif item in resolved:
                self.findings.append(
                    f"caller: {item} is kept for '{reason}' but has a "
                    "resolved production caller"
                    f" ({resolved[item]})")
            elif not REASON.fullmatch(reason):
                self.findings.append(f"reason: {item}: '{reason}' is not "
                                     "in the vocabulary")
            elif not self.reason_holds(item, reason):
                self.findings.append(f"reason: {item}: '{reason}' does not "
                                     f"hold{self.where(item)}")

    def reached(self, edges, seeds: Set[str], categories) -> Dict[str, str]:
        """item -> a site, for every item a live site of ``categories``
        reaches from the roots and ``seeds``."""
        out: Dict[str, str] = {}
        by_enclosing = defaultdict(list)
        for item, enclosing, category, loc in edges:
            # an export is reached by any import through its package
            if category in categories or ":" in item:
                by_enclosing[enclosing].append((item, loc))
        todo = [None] + sorted(seeds)
        while todo:
            for item, loc in by_enclosing.pop(todo.pop(), ()):
                if item not in out:
                    out[item] = loc
                    todo.append(item)
        return out

    def reason_holds(self, item: str, reason: str) -> bool:
        reach = self.reach.get(item, {})
        if reason.startswith("unresolved: "):
            path = reason.split(" ", 1)[1].rsplit(":", 1)[0]
            return any(loc.startswith(path + ":")
                       for loc in reach.get("unresolved", ()))
        if reason.startswith("harness import"):
            return bool(reach.get("harness"))
        return True

    def where(self, item: str) -> str:
        reach = self.reach.get(item, {})
        parts = [f"{category} {locs[0]}" + (f" +{len(locs) - 1}"
                                            if len(locs) > 1 else "")
                 for category, locs in sorted(reach.items())]
        return "; reached by: " + ", ".join(parts) if parts else \
            "; reached by nothing"

    def tally(self) -> str:
        kinds = Counter(kind for kind, _ in self.items.values())
        reasons = Counter(reason.split(":")[0]
                          for reason in self.keep.values())
        return "\n".join([
            f"items: {len(self.items)} scanned ("
            + "; ".join(f"{kind}: {n}" for kind, n in sorted(kinds.items()))
            + ")",
            f"resolved production reach: {len(self.resolved)}",
            f"keep entries: {len(self.keep)} ("
            + "; ".join(f"{reason}: {n}"
                        for reason, n in sorted(reasons.items())) + ")",
            f"findings: {len(self.findings)}",
        ])


def check(root: Path, keep: Optional[Dict[str, str]] = None) -> Report:
    """Scan the tree at ``root`` against ``keep`` (default :data:`KEEP`)."""
    return Report(Scanner(root), KEEP if keep is None else keep)


def main() -> int:
    report = check(Path(__file__).resolve().parent.parent)
    for finding in report.findings:
        print(finding)
    print(report.tally())
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
