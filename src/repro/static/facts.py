"""Flow-insensitive lockset facts over MiniJ ASTs.

The abstraction interprets each method body symbolically and records,
for every field-access site (``FieldGet`` reads, ``AssignField``
writes), three facts keyed by the site's ``node_id`` — the same id the
runtime stamps on the access events the dynamic analysis consumes:

* the **owner path** τ: the symbolic access path of the expression the
  field is read from / written to (``("this",)`` for ``this.f``,
  ``("x", "box")`` for ``x.box.f``), or ``None`` when the owner is not
  expressible as a stable path;
* the **must-hold lock paths**: symbolic paths of every monitor that is
  lexically held at the site (enclosing ``sync`` blocks plus ``this``
  for ``synchronized`` methods), restricted to paths whose value cannot
  change between acquisition and access;
* a **thread-local** bit: the owner is a freshly allocated local object
  that provably never escapes the creating thread.

A path is *usable* only when its root is constant for the duration of
the invocation (``this``, or a local/parameter that is never
reassigned) and every field component is *stable* — assigned only
during construction, program-wide, by constructors that do not leak
``this``.  Stable fields cannot change after the constructor returns,
and because synthesized tests construct all context objects before
forking, every thread observes the same value; that is what lets two
invocations agree on which monitor ``o.lock`` denotes.

Anything the abstraction cannot express falls through as *Unknown*
(no entry for the node id), which the filter treats as "may race".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.classtable import ClassTable

#: Builtin pseudo-fields (array element/length slots); arrays are
#: mutated through native calls the walker does not model, so these are
#: never stable and never part of a usable path.
_PSEUDO_FIELDS = frozenset({"elem", "length"})

#: Root marker for receiver-rooted paths.
THIS_ROOT = "this"

Path = tuple[str, ...]


@dataclass(frozen=True)
class SiteFacts:
    """Static facts for one field-access site."""

    node_id: int
    kind: str  # "R" or "W"
    field_name: str
    owner: Path | None
    """Owner path τ, or None when the owner is not a usable path."""
    must_locks: frozenset[Path]
    """Usable lock paths lexically held at the site."""
    thread_local: bool
    """Owner is a fresh local object that never escapes this thread."""

    def rel_locks(self) -> frozenset[Path]:
        """Lock paths relative to the owner: suffixes s with λ = τ ⊕ s.

        Two racing accesses share their owner object (a race requires
        one address), so equal relative suffixes name the same monitor:
        the empty suffix is ``sync(owner)`` itself, ``("lk",)`` is
        ``owner.lk``, and so on.
        """
        if self.owner is None:
            return frozenset()
        n = len(self.owner)
        return frozenset(
            lock[n:] for lock in self.must_locks if lock[:n] == self.owner
        )

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "kind": self.kind,
            "field": self.field_name,
            "owner": list(self.owner) if self.owner is not None else None,
            "must_locks": sorted(list(p) for p in self.must_locks),
            "thread_local": self.thread_local,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SiteFacts":
        owner = data.get("owner")
        return cls(
            node_id=data["node_id"],
            kind=data["kind"],
            field_name=data["field"],
            owner=tuple(owner) if owner is not None else None,
            must_locks=frozenset(tuple(p) for p in data.get("must_locks", ())),
            thread_local=bool(data.get("thread_local", False)),
        )


@dataclass
class StaticFacts:
    """Program-wide result of the lockset abstract interpretation."""

    sites: dict[int, SiteFacts] = field(default_factory=dict)
    stable_fields: frozenset[str] = frozenset()
    site_count: int = 0

    def site(self, node_id: int) -> SiteFacts | None:
        return self.sites.get(node_id)

    def to_dict(self) -> dict:
        return {
            "sites": [self.sites[k].to_dict() for k in sorted(self.sites)],
            "stable_fields": sorted(self.stable_fields),
            "site_count": self.site_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StaticFacts":
        sites = {
            entry["node_id"]: SiteFacts.from_dict(entry)
            for entry in data.get("sites", ())
        }
        return cls(
            sites=sites,
            stable_fields=frozenset(data.get("stable_fields", ())),
            site_count=int(data.get("site_count", len(sites))),
        )


# ----------------------------------------------------------------------
# Generic AST iteration helpers.


def _child_nodes(node) -> list:
    out = []
    for value in vars(node).values():
        if isinstance(value, (ast.Expr, ast.Stmt)):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, (ast.Expr, ast.Stmt)))
    return out


def _walk(node):
    """Yield node and every AST descendant (pre-order)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(_child_nodes(current)))


# ----------------------------------------------------------------------
# Stability: fields assigned only during construction.


def _ctor_leaks_this(ctor: ast.MethodDecl) -> bool:
    """Does the constructor let ``this`` escape before it returns?

    ``this`` may appear only as the root of a field read/write target
    chain or as a ``sync`` lock; anywhere else (call argument or
    receiver, assignment value, return) conservatively counts as an
    escape — another thread could then observe the object
    mid-construction.  The three walkers are module-level, not
    closures: mutually recursive closures form a reference cycle per
    call that only the cyclic collector frees.
    """
    return _stmt_leaks(ctor.body)


def _chain_leaks(expr) -> bool:
    # `expr` is used purely as the owner of a field access; a
    # this-rooted FieldGet chain is fine.
    if isinstance(expr, ast.This):
        return False
    if isinstance(expr, ast.FieldGet):
        return _chain_leaks(expr.target)
    return _expr_leaks(expr)


def _expr_leaks(expr) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.This):
        return True
    if isinstance(expr, ast.FieldGet):
        return _chain_leaks(expr.target)
    return any(_expr_leaks(c) for c in _child_nodes(expr))


def _stmt_leaks(stmt) -> bool:
    if stmt is None:
        return False
    if isinstance(stmt, ast.AssignField):
        return _chain_leaks(stmt.target) or _expr_leaks(stmt.value)
    if isinstance(stmt, ast.Sync):
        lock_ok = isinstance(stmt.lock, ast.This) or not _expr_leaks(stmt.lock)
        return (not lock_ok) or _stmt_leaks(stmt.body)
    for child in _child_nodes(stmt):
        leaked = (
            _expr_leaks(child)
            if isinstance(child, ast.Expr)
            else _stmt_leaks(child)
        )
        if leaked:
            return True
    return False


def _contains_this(node) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.This):
        return True
    return any(_contains_this(c) for c in _child_nodes(node))


def _compute_stable_fields(table: ClassTable) -> frozenset[str]:
    """Field names assigned only during (non-leaking) construction.

    Stability is name-based across the whole program: one mutable
    ``lock`` field anywhere poisons the name everywhere.  That is
    coarse but keeps the analysis trivially sound under MiniJ's flat
    class namespace.
    """
    assigned_outside_ctor: set[str] = set()
    ctor_assigned: dict[str, bool] = {}  # field -> all ctors non-leaking
    declared: set[str] = set()
    for cls in table.program.classes:
        for fdecl in cls.fields:
            declared.add(fdecl.name)
            if fdecl.init is not None and _contains_this(fdecl.init):
                assigned_outside_ctor.add(fdecl.name)
        for method in cls.methods:
            leaks = method.is_constructor and _ctor_leaks_this(method)
            for node in _walk(method.body):
                if not isinstance(node, ast.AssignField):
                    continue
                name = node.field_name
                if method.is_constructor:
                    ok = ctor_assigned.get(name, True) and not leaks
                    ctor_assigned[name] = ok
                else:
                    assigned_outside_ctor.add(name)
    stable = {
        name
        for name in declared
        if name not in assigned_outside_ctor
        and name not in _PSEUDO_FIELDS
        and ctor_assigned.get(name, True)
    }
    return frozenset(stable)


def _nonleaking_classes(table: ClassTable) -> frozenset[str]:
    """Classes none of whose constructors leak ``this``."""
    names = set()
    for cls in table.program.classes:
        ctors = [m for m in cls.methods if m.is_constructor]
        if all(not _ctor_leaks_this(c) for c in ctors):
            names.add(cls.name)
    return frozenset(names)


# ----------------------------------------------------------------------
# Per-method walk.


class _MethodWalker:
    def __init__(
        self,
        method: ast.MethodDecl,
        stable: frozenset[str],
        fresh_classes: frozenset[str],
        sink: dict[int, SiteFacts],
    ) -> None:
        self._method = method
        self._stable = stable
        self._sink = sink
        self._reassigned = self._collect_reassigned(method)
        self._locals = frozenset(
            {p.name for p in method.params}
            | {
                n.name
                for n in _walk(method.body)
                if isinstance(n, ast.VarDecl)
            }
        )
        self._thread_local_vars = self._collect_thread_local(
            method, fresh_classes
        )
        self._lock_stack: list[Path] = []
        if method.synchronized:
            self._lock_stack.append((THIS_ROOT,))

    @staticmethod
    def _collect_reassigned(method: ast.MethodDecl) -> frozenset[str]:
        return frozenset(
            n.name for n in _walk(method.body) if isinstance(n, ast.AssignVar)
        )

    def _collect_thread_local(
        self, method: ast.MethodDecl, fresh_classes: frozenset[str]
    ) -> frozenset[str]:
        """Locals bound to a fresh object that never escapes.

        The variable must be declared with a ``new C(...)`` initializer
        for a non-leaking class, never reassigned, and every other use
        must be as the direct target of a field read/write — appearing
        as a call argument, assignment value, return value, lock, or
        anything else counts as an escape.
        """
        fresh: dict[str, bool] = {}
        for node in _walk(method.body):
            if isinstance(node, ast.VarDecl):
                is_fresh = (
                    isinstance(node.init, ast.New)
                    and node.init.class_name in fresh_classes
                    and node.name not in self._reassigned
                )
                # Redeclaration (shadowing) would confuse the
                # name-based view; treat it as escaping.
                if node.name in fresh:
                    is_fresh = False
                fresh[node.name] = is_fresh
        if not fresh:
            return frozenset()
        for node in _walk(method.body):
            for name in self._escaping_var_uses(node):
                fresh[name] = False
        return frozenset(n for n, ok in fresh.items() if ok)

    @staticmethod
    def _escaping_var_uses(node) -> list[str]:
        """Var names used somewhere other than as an access target."""
        out = []
        safe_children: set[int] = set()
        if isinstance(node, (ast.FieldGet, ast.AssignField)) and isinstance(
            node.target, ast.VarRef
        ):
            safe_children.add(id(node.target))
        for child in _child_nodes(node):
            if isinstance(child, ast.VarRef) and id(child) not in safe_children:
                out.append(child.name)
        return out

    # -- paths ---------------------------------------------------------

    def path_of(self, expr) -> Path | None:
        """Usable symbolic path of an expression, else None.

        Roots: ``this`` (always constant within an invocation) or a
        local/parameter that is never reassigned.  Every field hop must
        be through a stable field.
        """
        if isinstance(expr, ast.This):
            return (THIS_ROOT,)
        if isinstance(expr, ast.VarRef):
            if (
                expr.name in self._locals
                and expr.name not in self._reassigned
                and expr.name != THIS_ROOT
            ):
                return (expr.name,)
            return None
        if isinstance(expr, ast.FieldGet):
            if expr.field_name not in self._stable:
                return None
            base = self.path_of(expr.target)
            if base is None:
                return None
            return base + (expr.field_name,)
        return None

    # -- traversal -----------------------------------------------------

    def run(self) -> None:
        self._stmt(self._method.body)

    def _stmt(self, stmt) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._stmt(s)
        elif isinstance(stmt, ast.Sync):
            self._expr(stmt.lock)
            lock_path = self.path_of(stmt.lock)
            if lock_path is not None:
                self._lock_stack.append(lock_path)
                self._stmt(stmt.body)
                self._lock_stack.pop()
            else:
                self._stmt(stmt.body)
        elif isinstance(stmt, ast.AssignField):
            self._expr(stmt.target)
            self._expr(stmt.value)
            self._record(stmt.node_id, "W", stmt.field_name, stmt.target)
        elif isinstance(stmt, ast.VarDecl):
            self._expr(stmt.init)
        elif isinstance(stmt, ast.AssignVar):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.cond)
            self._stmt(stmt.then_body)
            self._stmt(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._expr(stmt.cond)
        elif isinstance(stmt, ast.Fork):
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)

    def _expr(self, expr) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.FieldGet):
            self._expr(expr.target)
            self._record(expr.node_id, "R", expr.field_name, expr.target)
            return
        for child in _child_nodes(expr):
            self._expr(child)

    def _record(self, node_id: int, kind: str, field_name: str, target) -> None:
        owner = self.path_of(target)
        thread_local = (
            owner is not None
            and len(owner) == 1
            and owner[0] in self._thread_local_vars
        )
        self._sink[node_id] = SiteFacts(
            node_id=node_id,
            kind=kind,
            field_name=field_name,
            owner=owner,
            must_locks=frozenset(self._lock_stack),
            thread_local=thread_local,
        )


def analyze_program(table: ClassTable) -> StaticFacts:
    """Run the lockset abstract interpretation over a whole program."""
    stable = _compute_stable_fields(table)
    fresh_classes = _nonleaking_classes(table)
    sites: dict[int, SiteFacts] = {}
    for cls in table.program.classes:
        for method in cls.methods:
            _MethodWalker(method, stable, fresh_classes, sites).run()
    return StaticFacts(
        sites=sites, stable_fields=stable, site_count=len(sites)
    )
