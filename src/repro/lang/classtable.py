"""Class table: the resolved view of a MiniJ program.

The class table answers the static questions the rest of the pipeline
asks:

* method and field lookup by class name (including the native builtin
  classes ``IntArray``, ``RefArray`` and ``Opaque``),
* declared field types — needed by the *concat* context-derivation rule
  ("type(o) = type(f)", paper Fig. 10),
* reference-type compatibility — MiniJ has no class inheritance, so two
  reference types are compatible iff they are the same class, one is an
  interface the other implements, or one is the universal ``Object``
  interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.errors import TypeError_
from repro.lang import ast
from repro.lang.types import INT, VOID, Type, class_type

#: The universal reference type; every class is compatible with it.
OBJECT = class_type("Object")


@dataclass(frozen=True)
class NativeMethodSig:
    """Signature of a method on a native builtin class."""

    name: str
    param_types: tuple[Type, ...]
    return_type: Type


#: Native builtin classes: name -> {method name -> signature}.
#: Array element accesses surface in traces as reads/writes of the
#: pseudo-field ``elem`` on the array object.
BUILTIN_METHODS: dict[str, dict[str, NativeMethodSig]] = {
    "IntArray": {
        "get": NativeMethodSig("get", (INT,), INT),
        "set": NativeMethodSig("set", (INT, INT), VOID),
        "length": NativeMethodSig("length", (), INT),
    },
    "RefArray": {
        "get": NativeMethodSig("get", (INT,), OBJECT),
        "set": NativeMethodSig("set", (INT, OBJECT), VOID),
        "length": NativeMethodSig("length", (), INT),
    },
    "Opaque": {},
}

#: Declared types of fields on builtin classes (for the analysis).
BUILTIN_FIELDS: dict[str, dict[str, Type]] = {
    "IntArray": {"elem": INT, "length": INT},
    "RefArray": {"elem": OBJECT, "length": INT},
    "Opaque": {},
}


class ClassTable:
    """Resolved class/interface registry for one MiniJ program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self._classes: dict[str, ast.ClassDecl] = {}
        self._interfaces: dict[str, ast.InterfaceDecl] = {}
        self._implements: dict[str, frozenset[str]] = {}
        self._field_types: dict[str, dict[str, Type]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction.

    def _build(self) -> None:
        for iface in self.program.interfaces:
            if iface.name in self._interfaces:
                raise TypeError_(f"duplicate interface {iface.name}", iface.line)
            self._interfaces[iface.name] = iface

        for cls in self.program.classes:
            if cls.name in self._classes or cls.name in BUILTIN_METHODS:
                raise TypeError_(f"duplicate class {cls.name}", cls.line)
            if cls.name in self._interfaces:
                raise TypeError_(
                    f"{cls.name} declared as both class and interface", cls.line
                )
            self._classes[cls.name] = cls
            for iface_name in cls.implements:
                if iface_name not in self._interfaces:
                    raise TypeError_(
                        f"class {cls.name} implements unknown interface "
                        f"{iface_name}",
                        cls.line,
                    )
            self._implements[cls.name] = frozenset(cls.implements)
            fields: dict[str, Type] = {}
            for field_decl in cls.fields:
                if field_decl.name in fields:
                    raise TypeError_(
                        f"duplicate field {cls.name}.{field_decl.name}",
                        field_decl.line,
                    )
                fields[field_decl.name] = field_decl.field_type
            self._field_types[cls.name] = fields
            seen_methods: set[str] = set()
            for method in cls.methods:
                key = method.name
                if key in seen_methods:
                    raise TypeError_(
                        f"duplicate method {cls.name}.{method.name}", method.line
                    )
                seen_methods.add(key)

        for name, fields in BUILTIN_FIELDS.items():
            self._field_types[name] = dict(fields)
            self._implements[name] = frozenset()

    # ------------------------------------------------------------------
    # Lookup.

    def has_class(self, name: str) -> bool:
        return name in self._classes or name in BUILTIN_METHODS

    def is_builtin(self, name: str) -> bool:
        return name in BUILTIN_METHODS

    def is_interface(self, name: str) -> bool:
        return name in self._interfaces or name == OBJECT.name

    def class_decl(self, name: str) -> ast.ClassDecl:
        try:
            return self._classes[name]
        except KeyError:
            raise TypeError_(f"unknown class {name}") from None

    def class_names(self) -> list[str]:
        """Names of user-defined classes, in declaration order."""
        return list(self._classes)

    def method(self, class_name: str, method_name: str) -> ast.MethodDecl | None:
        """Look up a user-defined method; None for builtins or misses."""
        cls = self._classes.get(class_name)
        if cls is None:
            return None
        return cls.method(method_name)

    def native_method(self, class_name: str, method_name: str) -> NativeMethodSig | None:
        return BUILTIN_METHODS.get(class_name, {}).get(method_name)

    def constructor(self, class_name: str) -> ast.MethodDecl | None:
        """The class's constructor, or None when it has only the default."""
        cls = self._classes.get(class_name)
        if cls is None:
            return None
        for method in cls.methods:
            if method.is_constructor:
                return method
        return None

    def site_methods(self) -> dict[int, str]:
        """node id -> name of the method whose body contains it.

        Every node id inside a method body belongs to exactly one
        method, so a race's site pair maps to a method pair by lookup.
        """
        mapping: dict[int, str] = {}

        def walk(node, method_name: str) -> None:
            node_id = getattr(node, "node_id", -1)
            if node_id >= 0:
                mapping[node_id] = method_name
            for value in vars(node).values():
                if isinstance(value, (ast.Stmt, ast.Expr)):
                    walk(value, method_name)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, (ast.Stmt, ast.Expr)):
                            walk(item, method_name)

        for cls in self.program.classes:
            for method in cls.methods:
                walk(method.body, method.name)
        return mapping

    def field_type(self, class_name: str, field_name: str) -> Type | None:
        """Declared type of ``class_name.field_name``, or None."""
        return self._field_types.get(class_name, {}).get(field_name)

    def implements(self, class_name: str) -> frozenset[str]:
        return self._implements.get(class_name, frozenset())

    # ------------------------------------------------------------------
    # Type compatibility.

    def value_matches(self, value_class: str, declared: Type) -> bool:
        """Whether an object of ``value_class`` fits a declared type."""
        if not declared.is_reference():
            return False
        if declared.name == OBJECT.name:
            return True
        if declared.name == value_class:
            return True
        return declared.name in self.implements(value_class)

    def types_compatible(self, left: Type, right: Type) -> bool:
        """Symmetric reference-type compatibility (paper: type equality).

        Used by the *set*/*concat*/*deep-set* rules to match the receiver
        type of a setter method against the owner type of the path being
        assigned, and a parameter type against a field type.
        """
        if not (left.is_reference() and right.is_reference()):
            return left == right
        if left.kind == "null" or right.kind == "null":
            return True
        if OBJECT.name in (left.name, right.name):
            return True
        if left.name == right.name:
            return True
        if left.name in self.implements(right.name):
            return True
        return right.name in self.implements(left.name)

    def concrete_classes_for(self, declared: Type) -> list[str]:
        """User classes whose instances fit the declared reference type."""
        if not declared.is_reference():
            return []
        return [
            name for name in self._classes if self.value_matches(name, declared)
        ]
