"""Frame-stack interpreter for MiniJ.

Every *visible action* (field access, lock, unlock, call, return, alloc,
wait, notify) is one trace event; the scheduler advances a thread by one
event at a time.  Purely local computation between two events executes
atomically — which matches the memory model relevant for races: only
shared-memory and synchronization operations are interleaving points.

Because of this structure, ``count = count + 1`` really is a READ event
followed by a WRITE event with a schedulable gap in between, so lost
updates and other classic races manifest concretely in the VM.

Engine (see DESIGN.md, "Performance architecture"):

* **Compiled units** — each method body, each class's field
  initializers and each client statement is compiled once, on first
  use, into a flat tuple of instructions memoized on its AST node.  An
  instruction is a tuple ``(handler, *operands)`` run as
  ``handler(thread, frame, op)``: one per visible action, which returns
  its event, plus the few that bind locals, jump or save a temporary,
  which return None.  A pure subtree (no field access, call, allocation
  or class-typed ``rand()``) compiles to one value op of the same shape
  that computes its value.  Tuples keep the code of a program a fraction
  of the size closures would, which matters because a worker keeps many
  parsed programs alive.
* **Explicit frames** — a thread is a :class:`FrameStack` iterator over
  linked :class:`Frame` records (pc, locals, temporaries); ``next()``
  runs instructions until one returns an event.  The Python stack does
  not grow with MiniJ call depth, so :data:`MAX_CALL_DEPTH` alone
  bounds recursion.
* **Resolution caches** — method lookup, constructor lookup, and the
  per-class field layouts and initializer code used at allocation are
  memoized per (class, name) so the AST is never re-scanned on the hot
  path.
* **Three-way emission** — the driving
  :class:`~repro.runtime.vm.Execution` sets, per data kind (invoke,
  return, alloc, read, write), what its instruction does with the
  event: build the event object, skip it (no listener subscribes), or
  write its row straight into the packed trace of a
  :class:`~repro.trace.columnar.ColumnarRecorder` that is the only
  listener.  Skipping and writing burn the label and return
  :data:`~repro.trace.events.SKIPPED_EVENT` without building an
  object.  Labels and scheduling points are unchanged, so the
  observable stream (and any recorded golden trace) is bit-identical.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from repro._util.errors import MiniJRuntimeError
from repro.lang import ast
from repro.lang.classtable import BUILTIN_METHODS, ClassTable
from repro.runtime.heap import Heap, HeapObject
from repro.runtime.values import ObjRef, Value, default_value, values_equal
from repro.trace.events import (
    SKIPPED_EVENT,
    AllocEvent,
    BlockedEvent,
    InvokeEvent,
    LockEvent,
    NotifyEvent,
    ReadEvent,
    ReturnEvent,
    UnlockEvent,
    WaitEvent,
    WriteEvent,
)

#: Default bound on nested library calls per thread, a MiniJ-level
#: stack overflow.  Frames live on the heap, not the Python stack.
MAX_CALL_DEPTH = 64

#: The data kinds in :meth:`Interpreter.set_emit` order.
EMIT_KINDS = (InvokeEvent, ReturnEvent, AllocEvent, ReadEvent, WriteEvent)

#: Emission modes that build every event.
EMIT_EVENTS = (True,) * len(EMIT_KINDS)

_MISSING = object()


@dataclass
class ForkRequest:
    """Returned by a thread when client code executes ``fork {}``.

    Not a trace event: the Execution intercepts it, spawns the child
    thread (emitting the real ForkEvent), and resumes the parent.  The
    child runs ``stmts`` over ``env`` — a snapshot of the parent's
    client variables at fork time (Java capture-by-value semantics).
    """

    stmts: list
    env: dict
    node_id: int


@dataclass(slots=True)
class ThreadContext:
    """Per-thread interpreter state shared across frames."""

    thread_id: int
    #: Monitor reentrancy per held object ref.
    held: dict[int, int] = field(default_factory=dict)
    #: Number of constructor frames on the stack (>0 => "in constructor").
    ctor_depth: int = 0
    #: Cached ``frozenset(held)``; invalidated on every lock transition
    #: so back-to-back accesses under a stable lockset share one set.
    locks_cache: frozenset[int] | None = None

    def locks_held(self) -> frozenset[int]:
        cache = self.locks_cache
        if cache is None:
            cache = self.locks_cache = frozenset(self.held)
        return cache


#: A compiled op: a tuple ``(handler, *operands)``, run as
#: ``handler(thread, frame, op)``.  An instruction's handler returns its
#: event, or None to run on; a value op's handler returns the value.
Op = tuple


class Code:
    """A compiled unit: its instructions and the frame layout they use.

    ``exit_pc`` is where ``return`` jumps (the release of a synchronized
    method's monitor, or the epilogue); ``params`` name a method's
    parameters in order.
    """

    __slots__ = ("instrs", "ntemps", "exit_pc", "params")

    def __init__(self, instrs, ntemps: int, exit_pc: int = 0, params=()) -> None:
        self.instrs: tuple[Op, ...] = tuple(instrs)
        self.ntemps = ntemps
        self.exit_pc = exit_pc
        self.params: tuple[str, ...] = params


class Frame:
    """One activation record.

    ``call_index`` scopes the invocation (0 = client level); ``depth`` is
    the library-call nesting depth (client = 0).  ``temps`` hold the
    values of impure subexpressions until their consumer runs.  Method
    frames also carry the ``decl``, call-site ``node_id``, ``from_client``
    flag and the caller temporary ``dst`` that receives ``ret``;
    field-initializer frames carry the allocation site's ``node_id``.
    """

    __slots__ = (
        "instrs", "pc", "exit_pc", "temps", "locals", "this", "call_index",
        "depth", "method", "parent", "ret", "decl", "node_id", "from_client",
        "dst",
    )

    def __init__(self, code: Code, locals, this, call_index, depth, method,
                 parent=None) -> None:
        self.instrs = code.instrs
        self.pc = 0
        self.exit_pc = code.exit_pc
        self.temps = [None] * code.ntemps
        self.locals: dict[str, Value] = locals
        self.this: ObjRef | None = this
        self.call_index: int = call_index
        self.depth: int = depth
        self.method: str = method
        self.parent: Frame | None = parent
        self.ret: Value = None


class FrameStack:
    """One VM thread's frames, advanced one event per ``next()``.

    Each ``next()`` runs instructions of the top frame until one returns
    an event (or a :class:`ForkRequest`).  The call after the last event
    raises ``StopIteration``, carrying the called method's return value
    for a thread started by :meth:`Interpreter.call_method`.
    """

    __slots__ = ("interp", "ctx", "tid", "frame")

    def __init__(self, interp: "Interpreter", ctx: ThreadContext, frame: Frame) -> None:
        self.interp = interp
        self.ctx = ctx
        self.tid = ctx.thread_id
        self.frame = frame

    def __iter__(self) -> "FrameStack":
        return self

    def __next__(self):
        while True:
            frame = self.frame
            pc = frame.pc
            frame.pc = pc + 1
            op = frame.instrs[pc]
            event = op[0](self, frame, op)
            if event is not None:
                return event


class Interpreter:
    """Executes MiniJ code for one VM, one :class:`FrameStack` per thread.

    The interpreter does not schedule anything itself: callers drive the
    iterators returned by :meth:`run_client_stmts` and
    :meth:`call_method` and receive events.
    """

    def __init__(self, table: ClassTable, heap: Heap, rng, label_source) -> None:
        """
        Args:
            table: the resolved program.
            heap: the shared heap.
            rng: a ``random.Random`` used only by ``rand()``.
            label_source: zero-argument callable returning the next
                global trace label.
        """
        self._table = table
        self._heap = heap
        self._rng = rng
        self._next_label = label_source
        self._next_call_index = 1
        self.max_call_depth = MAX_CALL_DEPTH

        # Per data kind: True builds the event, None skips it, a row
        # writer writes its row (set by the driving Execution).
        self._emit_invoke = self._emit_return = self._emit_alloc = True
        self._emit_read = self._emit_write = True

        # Per-class resolution caches.
        self._method_cache: dict[tuple[str, str], ast.MethodDecl | None] = {}
        self._ctor_cache: dict[str, ast.MethodDecl | None] = {}
        self._field_types_cache: dict[str, dict[str, str]] = {}
        self._field_inits_cache: dict[str, Code | None] = {}

    def clone(self, heap: Heap, rng, label_source) -> "Interpreter":
        """A new interpreter over ``heap`` that continues this one's
        call numbering.

        The resolution caches depend only on the class table, so the
        copy starts with them filled; it builds every event, as every
        interpreter does between runs.
        """
        copy = Interpreter(self._table, heap, rng, label_source)
        copy._next_call_index = self._next_call_index
        copy.max_call_depth = self.max_call_depth
        copy._method_cache = dict(self._method_cache)
        copy._ctor_cache = dict(self._ctor_cache)
        copy._field_types_cache = dict(self._field_types_cache)
        copy._field_inits_cache = dict(self._field_inits_cache)
        return copy

    # ------------------------------------------------------------------
    # Emission (driven by Execution).

    def set_emit(self, modes: tuple) -> None:
        """Set what the five data kinds emit.

        ``modes`` holds one entry each for invoke, return, alloc, read
        and write: True builds the event, None skips it, and a callable
        (a :class:`~repro.trace.columnar.PackedTrace` row writer such as
        ``read_row``) is handed the event's fields in its constructor
        order.  :data:`EMIT_EVENTS` builds everything.  Synchronization
        events are always built because the Execution inspects them.
        """
        (
            self._emit_invoke, self._emit_return, self._emit_alloc,
            self._emit_read, self._emit_write,
        ) = modes

    # ------------------------------------------------------------------
    # Entry points.

    def run_client_stmts(
        self, stmts: list[ast.Stmt], thread: ThreadContext, env: dict[str, Value]
    ) -> FrameStack:
        """Execute client (test body) statements in the given thread.

        ``env`` is the client variable environment; it is mutated in
        place so callers can observe client variables afterwards (this is
        how the synthesizer's ``collectObjects`` captures references).
        """
        if isinstance(stmts, ClientStmts):
            code = _compiled(stmts, _client_code)
        else:
            code = _client_code(stmts)
        return FrameStack(self, thread, Frame(code, env, None, 0, 0, "<client>"))

    def call_method(
        self,
        thread: ThreadContext,
        receiver: ObjRef,
        method_name: str,
        args: list[Value],
        from_client: bool = True,
        caller_depth: int = 0,
        node_id: int = -1,
        caller_call_index: int = 0,
    ) -> FrameStack:
        """Invoke ``receiver.method(args)`` directly (no client statement).

        Used by synthesized-test thread bodies and the fuzzer.  The
        final ``StopIteration`` carries the method's return value.
        """
        call = (_call_direct, receiver, method_name, args, from_client, node_id)
        code = Code((call, _RESULT), 1)
        frame = Frame(code, {}, None, caller_call_index, caller_depth, "<client>")
        return FrameStack(self, thread, frame)

    # ------------------------------------------------------------------
    # Resolution caches.

    def _resolve_method(
        self, class_name: str, method_name: str
    ) -> ast.MethodDecl | None:
        """Cached method resolution (class, name) -> declaration."""
        key = (class_name, method_name)
        decl = self._method_cache.get(key, _MISSING)
        if decl is _MISSING:
            decl = self._table.method(class_name, method_name)
            self._method_cache[key] = decl
        return decl

    def _resolve_constructor(self, class_name: str) -> ast.MethodDecl | None:
        """Cached constructor resolution."""
        ctor = self._ctor_cache.get(class_name, _MISSING)
        if ctor is _MISSING:
            ctor = self._table.constructor(class_name)
            self._ctor_cache[class_name] = ctor
        return ctor

    def _field_inits(self, class_name: str) -> Code | None:
        """The class's field-initializer code, None when it has none."""
        code = self._field_inits_cache.get(class_name, _MISSING)
        if code is _MISSING:
            code = _compiled(self._table.class_decl(class_name), _initializer_unit)
            self._field_inits_cache[class_name] = code
        return code

    def _alloc_object(self, class_name: str, lib_allocated: bool) -> HeapObject:
        field_types = self._field_types_cache.get(class_name)
        if field_types is None:
            if self._table.is_builtin(class_name):
                field_types = {}
            else:
                field_types = {
                    f.name: f.field_type.kind
                    for f in self._table.class_decl(class_name).fields
                }
            self._field_types_cache[class_name] = field_types
        return self._heap.alloc(class_name, field_types, lib_allocated=lib_allocated)


# ----------------------------------------------------------------------
# Compiler: AST -> Code.  Compilation reads only the AST, so a unit is
# memoized on its node and shared by every VM over the same program.


def _compiled(node, build: Callable) -> Code | None:
    try:
        return node._rt_code
    except AttributeError:
        code = node._rt_code = build(node)
        return code


class ClientStmts(list):
    """A list of client statements that keeps its compiled unit.

    :meth:`Interpreter.run_client_stmts` compiles a plain list on every
    call.  A list that is run many times (a materialized test's setup
    and thread bodies run once per fuzz run) is built as a
    ``ClientStmts`` and compiled on its first run only.  The unit lives
    on the list, so no other list is ever handed it; the list must not
    change once it has run.
    """

    __slots__ = ("_rt_code",)


def client_body(test: ast.TestDecl) -> ClientStmts:
    """The body statements of ``test``, made once per parsed test, so
    the body compiles on its first run only, as method bodies do."""
    try:
        return test._rt_body
    except AttributeError:
        body = test._rt_body = ClientStmts(test.body.stmts)
        return body


def _client_code(stmts: list[ast.Stmt]) -> Code:
    """A list of client statements as one unit that ends the thread."""
    units = [_compiled(stmt, _statement_unit) for stmt in stmts]
    instrs = (*chain.from_iterable(unit.instrs for unit in units), _FINISH)
    return Code(
        instrs,
        max((unit.ntemps for unit in units), default=0),
        exit_pc=len(instrs) - 1,
    )


def _statement_unit(stmt: ast.Stmt) -> Code:
    compiler = _Compiler()
    return Code(compiler.stmt(stmt), compiler.ntemps)


def _method_unit(decl: ast.MethodDecl) -> Code:
    compiler = _Compiler()
    prologue, epilogue = [], [_EPILOGUE]
    if decl.synchronized:
        temp = compiler.temp()
        # node_id None: the monitor events carry the call site's id.
        prologue = [(_acquire, _THIS, temp, None, decl.line)]
        epilogue = [(_release, temp, None), _EPILOGUE]
    body = compiler.stmt(decl.body)
    return Code(
        prologue + body + epilogue,
        compiler.ntemps,
        exit_pc=len(prologue) + len(body),
        params=tuple(param.name for param in decl.params),
    )


def _initializer_unit(cls: ast.ClassDecl) -> Code | None:
    compiler = _Compiler()
    instrs = []
    for decl in cls.fields:
        if decl.init is not None:
            code, value = compiler.expr(decl.init)
            instrs += code + [(_init_write, value, decl.name)]
    return Code(instrs + [_INIT_END], compiler.ntemps) if instrs else None


#: Expressions whose value is a constant or ``this``: evaluating them
#: later than their position can neither fault nor be observed.
_CONSTANT = (ast.IntLit, ast.BoolLit, ast.NullLit, ast.This)

#: Expressions whose instruction leaves the value in a temporary.
_ACTIONS = (ast.FieldGet, ast.Call, ast.New, ast.Rand)


class _Compiler:
    """Compiles one unit.

    ``stmt`` returns a list of instructions.  ``expr`` returns
    ``(code, value)``: ``code`` performs the expression's visible actions
    and ``value`` is a value op computing the rest, which its consumer
    evaluates once, right after ``code``, in evaluation order.  A pure
    expression has no code.  Jumps are relative, so units concatenate.
    """

    def __init__(self) -> None:
        self.ntemps = 0
        #: Release instructions of the enclosing ``synchronized`` blocks;
        #: ``return`` runs them, innermost first, before leaving.
        self.releases: list[Op] = []

    def temp(self, count: int = 1) -> int:
        index = self.ntemps
        self.ntemps += count
        return index

    # Statements -------------------------------------------------------

    def stmt(self, stmt: ast.Stmt) -> list[Op]:
        return getattr(self, "stmt_" + stmt.__class__.__name__.lower())(stmt)

    def stmt_block(self, stmt: ast.Block) -> list[Op]:
        return [op for inner in stmt.stmts for op in self.stmt(inner)]

    def stmt_vardecl(self, stmt: ast.VarDecl) -> list[Op]:
        if stmt.init is None:
            default = (_const, default_value(stmt.decl_type.kind))
            return [(_setlocal, stmt.name, default)]
        code, value = self.expr(stmt.init)
        return code + [(_setlocal, stmt.name, value)]

    def stmt_assignvar(self, stmt: ast.AssignVar) -> list[Op]:
        code, value = self.expr(stmt.value)
        return code + [(_setlocal, stmt.name, value)]

    def stmt_assignfield(self, stmt: ast.AssignField) -> list[Op]:
        code, target = self.expr(stmt.target)
        value_code, value = self.expr(stmt.value)
        if value_code:
            # The target is dereferenced before the value's actions run.
            temp = self.temp()
            code += [(_store, (_checked_ref, target, stmt.line), temp)]
            target = (_temp, temp)
        return code + value_code + [
            (_putfield, target, value, stmt.field_name, stmt.node_id, stmt.line)
        ]

    def stmt_if(self, stmt: ast.If) -> list[Op]:
        code, cond = self.expr(stmt.cond)
        then = self.stmt(stmt.then_body)
        if stmt.else_body is None:
            return code + [(_branch, cond, stmt.line, len(then))] + then
        other = self.stmt(stmt.else_body)
        return (
            code + [(_branch, cond, stmt.line, len(then) + 1)]
            + then + [(_jump, len(other))] + other
        )

    def stmt_while(self, stmt: ast.While) -> list[Op]:
        code, cond = self.expr(stmt.cond)
        body = self.stmt(stmt.body)
        head = code + [(_branch, cond, stmt.line, len(body) + 1)]
        return head + body + [(_jump, -(len(head) + len(body) + 1))]

    def stmt_return(self, stmt: ast.Return) -> list[Op]:
        code, value = ([], _NULL) if stmt.value is None else self.expr(stmt.value)
        if not self.releases:
            return code + [(_return, value)]
        return code + [(_set_return, value), *reversed(self.releases), _EXIT]

    def stmt_sync(self, stmt: ast.Sync) -> list[Op]:
        code, lock = self.expr(stmt.lock)
        temp = self.temp()
        release = (_release, temp, stmt.node_id)
        self.releases.append(release)
        body = self.stmt(stmt.body)
        self.releases.pop()
        acquire = (_acquire, lock, temp, stmt.node_id, stmt.line)
        return code + [acquire] + body + [release]

    def stmt_assert(self, stmt: ast.Assert) -> list[Op]:
        code, cond = self.expr(stmt.cond)
        return code + [(_assert, cond, stmt.line)]

    def stmt_fork(self, stmt: ast.Fork) -> list[Op]:
        return [(_fork, stmt.body.stmts, stmt.node_id, stmt.line)]

    def stmt_exprstmt(self, stmt: ast.ExprStmt) -> list[Op]:
        code, value = self.expr(stmt.expr)
        if code and isinstance(stmt.expr, _ACTIONS):
            return code  # the value waits in a temporary nobody reads
        return code + [(_discard, value)]

    # Expressions ------------------------------------------------------

    def expr(self, expr: ast.Expr) -> tuple[list[Op], Op]:
        return getattr(self, "expr_" + expr.__class__.__name__.lower())(expr)

    def expr_intlit(self, expr) -> tuple[list[Op], Op]:
        return [], (_const, expr.value)

    expr_boollit = expr_intlit

    def expr_nulllit(self, expr) -> tuple[list[Op], Op]:
        return [], _NULL

    def expr_this(self, expr) -> tuple[list[Op], Op]:
        return [], _THIS

    def expr_varref(self, expr: ast.VarRef) -> tuple[list[Op], Op]:
        return [], (_var, expr.name, expr.line)

    def expr_rand(self, expr: ast.Rand) -> tuple[list[Op], Op]:
        result_type = expr.result_type
        if result_type is None or result_type.kind != "class":
            return [], _RAND
        dst = self.temp()
        return [(_rand_object, result_type.name, expr.node_id, dst)], (_temp, dst)

    def expr_unary(self, expr: ast.Unary) -> tuple[list[Op], Op]:
        code, operand = self.expr(expr.operand)
        return code, (_not if expr.op == "!" else _negate, operand, expr.line)

    def expr_binary(self, expr: ast.Binary) -> tuple[list[Op], Op]:
        if expr.op not in ("&&", "||"):
            code, (left, right) = self.operands([expr.left, expr.right])
            fast = _INT_OPS.get(expr.op)
            return code, (_binary, expr.op, left, right, expr.line, fast)
        stop = expr.op == "||"
        code, left = self.expr(expr.left)
        right_code, right = self.expr(expr.right)
        if not right_code:
            return code, (_logic, stop, left, right, expr.line)
        dst = self.temp()
        right_code += [(_store, (_checked_bool, right, expr.line), dst)]
        shortcut = (_shortcut, left, stop, expr.line, dst, len(right_code))
        return code + [shortcut] + right_code, (_temp, dst)

    def expr_fieldget(self, expr: ast.FieldGet) -> tuple[list[Op], Op]:
        code, target = self.expr(expr.target)
        dst = self.temp()
        code.append((_getfield, target, expr.field_name, expr.node_id, expr.line, dst))
        return code, (_temp, dst)

    def expr_call(self, expr: ast.Call) -> tuple[list[Op], Op]:
        code, (target, *args) = self.operands([expr.target, *expr.args])
        waits = expr.method == "wait" and not args
        # A wait site also keeps the monitor's object and saved depth.
        dst = self.temp(3 if waits else 1)
        code.append((
            _call, target, tuple(args), expr.method, expr.node_id, expr.line, dst,
            waits,
        ))
        if waits:
            code += [(handler, expr.node_id, dst + 1) for handler in _WAIT_HANDLERS]
        return code, (_temp, dst)

    def expr_new(self, expr: ast.New) -> tuple[list[Op], Op]:
        code, args = self.operands(expr.args)
        dst = self.temp(2)  # the new object's handle, then the ctor args
        if expr.class_name in BUILTIN_METHODS:
            code.append((
                _new_builtin, tuple(args), expr.class_name, expr.node_id, expr.line,
                dst,
            ))
        else:
            code += [
                (_alloc, tuple(args), expr.class_name, expr.node_id, dst),
                (_initialize, expr.class_name, expr.node_id, dst),
                (_construct, expr.class_name, expr.node_id, dst),
            ]
        return code, (_temp, dst)

    def operands(self, exprs: list[ast.Expr]) -> tuple[list[Op], list[Op]]:
        """Compile the operands of one consumer in evaluation order.

        An operand evaluated before a later operand's actions is saved
        to a temporary at its own position; the ones after the last
        action are left to the consumer.
        """
        parts = [self.expr(e) for e in exprs]
        last = max((i for i, (code, _) in enumerate(parts) if code), default=-1)
        code, values = [], []
        for i, (e, (part, value)) in enumerate(zip(exprs, parts)):
            code += part
            settled = isinstance(e, _CONSTANT) or (part and isinstance(e, _ACTIONS))
            if i < last and not settled:
                temp = self.temp()
                code.append((_store, value, temp))
                value = (_temp, temp)
            values.append(value)
        return code, values


# ----------------------------------------------------------------------
# Checks and faults.


def _deref(run: FrameStack, value: Value, line: int) -> HeapObject:
    if isinstance(value, ObjRef):
        return run.interp._heap.get(value.ref)
    kind = "null-dereference" if value is None else "type-error"
    raise MiniJRuntimeError(kind, f"dereference of {value!r} at line {line}", run.tid)


def _bool(run: FrameStack, value: Value, line: int) -> bool:
    if value is not True and value is not False:
        raise MiniJRuntimeError(
            "type-error", f"expected bool at line {line}, got {value!r}", run.tid
        )
    return value


def _int(run: FrameStack, value: Value, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MiniJRuntimeError(
            "type-error", f"expected int at line {line}, got {value!r}", run.tid
        )
    return value


_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def _binop(run: FrameStack, op: str, left, right, line: int):
    """Non-short-circuit binary operators, Java semantics."""
    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    _int(run, left, line)
    _int(run, right, line)
    if op not in ("/", "%"):
        return _INT_OPS[op](left, right)
    if right == 0:
        raise MiniJRuntimeError("division-by-zero", f"at line {line}", run.tid)
    # Match Java semantics: truncation toward zero.
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient if op == "/" else left - quotient * right


# ----------------------------------------------------------------------
# Value ops: pure, evaluated inside an instruction as ``v[0](run, f, v)``.


def _const(run: FrameStack, f: Frame, op: Op) -> Value:
    return op[1]


def _null(run: FrameStack, f: Frame, op: Op) -> None:
    return None


def _this(run: FrameStack, f: Frame, op: Op) -> ObjRef | None:
    return f.this


def _temp(run: FrameStack, f: Frame, op: Op) -> Value:
    return f.temps[op[1]]


def _rand(run: FrameStack, f: Frame, op: Op) -> int:
    # Class-typed rand() allocates and compiles to an instruction; only
    # the int draw is a value op.
    return run.interp._rng.randrange(1 << 16)


_NULL, _THIS, _RAND = (_null,), (_this,), (_rand,)


def _var(run: FrameStack, f: Frame, op: Op) -> Value:
    try:
        return f.locals[op[1]]
    except KeyError:
        raise MiniJRuntimeError(
            "undefined-variable", f"{op[1]} at line {op[2]}", run.tid
        ) from None


def _not(run: FrameStack, f: Frame, op: Op) -> bool:
    _, operand, line = op
    return not _bool(run, operand[0](run, f, operand), line)


def _negate(run: FrameStack, f: Frame, op: Op) -> int:
    _, operand, line = op
    return -_int(run, operand[0](run, f, operand), line)


def _binary(run: FrameStack, f: Frame, op: Op) -> Value:
    _, name, left, right, line, fast = op
    lhs = left[0](run, f, left)
    rhs = right[0](run, f, right)
    if fast is not None and lhs.__class__ is int and rhs.__class__ is int:
        return fast(lhs, rhs)
    return _binop(run, name, lhs, rhs, line)


def _logic(run: FrameStack, f: Frame, op: Op) -> bool:
    """``&&`` (stop False) or ``||`` (stop True) over pure operands."""
    _, stop, left, right, line = op
    if _bool(run, left[0](run, f, left), line) is stop:
        return stop
    return _bool(run, right[0](run, f, right), line)


def _checked_bool(run: FrameStack, f: Frame, op: Op) -> bool:
    _, value, line = op
    return _bool(run, value[0](run, f, value), line)


def _checked_ref(run: FrameStack, f: Frame, op: Op) -> Value:
    _, value, line = op
    target = value[0](run, f, value)
    _deref(run, target, line)
    return target


# ----------------------------------------------------------------------
# Local instructions: no event, the thread runs on.


def _store(run: FrameStack, f: Frame, op: Op) -> None:
    _, value, dst = op
    f.temps[dst] = value[0](run, f, value)


def _discard(run: FrameStack, f: Frame, op: Op) -> None:
    value = op[1]
    value[0](run, f, value)


def _setlocal(run: FrameStack, f: Frame, op: Op) -> None:
    _, name, value = op
    f.locals[name] = value[0](run, f, value)


def _jump(run: FrameStack, f: Frame, op: Op) -> None:
    f.pc += op[1]


def _branch(run: FrameStack, f: Frame, op: Op) -> None:
    """Jump ``offset`` instructions ahead when ``cond`` is false."""
    _, cond, line, offset = op
    if not _bool(run, cond[0](run, f, cond), line):
        f.pc += offset


def _shortcut(run: FrameStack, f: Frame, op: Op) -> None:
    """Short-circuit ``&&``/``||`` whose right operand has actions."""
    _, left, stop, line, dst, offset = op
    if _bool(run, left[0](run, f, left), line) is stop:
        f.temps[dst] = stop
        f.pc += offset


def _assert(run: FrameStack, f: Frame, op: Op) -> None:
    _, cond, line = op
    if cond[0](run, f, cond) is not True:
        owner = "<client>" if f.this is None else f.this.class_name
        raise MiniJRuntimeError(
            "assertion-failed", f"assert at line {line} in {owner}.{f.method}", run.tid
        )


def _return(run: FrameStack, f: Frame, op: Op) -> None:
    value = op[1]
    f.ret = value[0](run, f, value)
    f.pc = f.exit_pc


def _set_return(run: FrameStack, f: Frame, op: Op) -> None:
    """``return`` inside ``synchronized``: the releases and exit follow."""
    value = op[1]
    f.ret = value[0](run, f, value)


def _exit(run: FrameStack, f: Frame, op: Op) -> None:
    f.pc = f.exit_pc


def _finish(run: FrameStack, f: Frame, op: Op):
    f.pc -= 1
    raise StopIteration


def _result(run: FrameStack, f: Frame, op: Op):
    f.pc -= 1
    raise StopIteration(f.temps[0])


def _fork(run: FrameStack, f: Frame, op: Op) -> ForkRequest:
    _, stmts, node_id, line = op
    if f.call_index != 0:
        raise MiniJRuntimeError(
            "fork-in-library", f"fork at line {line} outside a test body", run.tid
        )
    return ForkRequest(stmts=stmts, env=dict(f.locals), node_id=node_id)


# ----------------------------------------------------------------------
# Events.  Each of the five data kinds is built, skipped or written as a
# row (see Interpreter.set_emit); skipping and writing burn the label
# and return SKIPPED_EVENT.  Synchronization events are always built.


def _read(run, f, node_id, obj, name, value, index):
    interp = run.interp
    emit = interp._emit_read
    ctx = run.ctx
    if emit is True:
        return ReadEvent(
            interp._next_label(), run.tid, node_id, f.call_index, obj.ref,
            obj.class_name, name, value, ctx.locks_held(), index,
            ctx.ctor_depth > 0,
        )
    label = interp._next_label()
    if emit is not None:
        emit(
            label, run.tid, node_id, f.call_index, obj.ref, obj.class_name,
            name, value, ctx.locks_held(), index, ctx.ctor_depth > 0,
        )
    return SKIPPED_EVENT


def _write(run, f, node_id, obj, name, value, index, old_value):
    interp = run.interp
    emit = interp._emit_write
    ctx = run.ctx
    if emit is True:
        return WriteEvent(
            interp._next_label(), run.tid, node_id, f.call_index, obj.ref,
            obj.class_name, name, value, ctx.locks_held(), index,
            ctx.ctor_depth > 0, old_value,
        )
    label = interp._next_label()
    if emit is not None:
        emit(
            label, run.tid, node_id, f.call_index, obj.ref, obj.class_name,
            name, value, ctx.locks_held(), index, ctx.ctor_depth > 0,
            old_value,
        )
    return SKIPPED_EVENT


def _allocated(run, f, node_id, obj, in_library):
    interp = run.interp
    emit = interp._emit_alloc
    if emit is True:
        return AllocEvent(
            interp._next_label(), run.tid, node_id, f.call_index, obj.ref,
            obj.class_name, in_library,
        )
    label = interp._next_label()
    if emit is not None:
        emit(label, run.tid, node_id, f.call_index, obj.ref, obj.class_name,
             in_library)
    return SKIPPED_EVENT


def _blocked(run, f, node_id, obj):
    owner = obj.monitor.owner
    return BlockedEvent(
        run.interp._next_label(), run.tid, node_id, f.call_index, obj.ref,
        -1 if owner is None else owner,
    )


# ----------------------------------------------------------------------
# Field access.


def _getfield(run: FrameStack, f: Frame, op: Op):
    _, target, name, node_id, line, dst = op
    obj = _deref(run, target[0](run, f, target), line)
    try:
        value = obj.fields[name]
    except KeyError:
        if obj.elements is not None and name == "length":
            f.temps[dst] = len(obj.elements)
            return None
        raise MiniJRuntimeError(
            "no-such-field", f"{obj.class_name}.{name} at line {line}", run.tid
        ) from None
    f.temps[dst] = value
    return _read(run, f, node_id, obj, name, value, None)


def _putfield(run: FrameStack, f: Frame, op: Op):
    _, target, value, name, node_id, line = op
    obj = _deref(run, target[0](run, f, target), line)
    new = value[0](run, f, value)
    fields = obj.fields
    if name not in fields:
        raise MiniJRuntimeError(
            "no-such-field", f"{obj.class_name}.{name} at line {line}", run.tid
        )
    old = fields[name]
    fields[name] = new
    return _write(run, f, node_id, obj, name, new, None, old)


# ----------------------------------------------------------------------
# Monitors.


def _acquire(run: FrameStack, f: Frame, op: Op):
    """Enter the monitor of ``lock`` into ``temp``; node_id None = call site.

    A failed attempt returns one BlockedEvent and retries next step.
    The retry evaluates ``lock`` again: an operand that names an object
    is ``this``, a local or a temporary, none of which can change while
    the thread waits.
    """
    _, lock, temp, node_id, line = op
    obj = _deref(run, lock[0](run, f, lock), line)
    site = f.node_id if node_id is None else node_id
    monitor = obj.monitor
    tid = run.tid
    if not monitor.can_acquire(tid):
        f.pc -= 1
        return _blocked(run, f, site, obj)
    f.temps[temp] = obj
    depth = monitor.acquire(tid)
    ctx = run.ctx
    ctx.held[obj.ref] = ctx.held.get(obj.ref, 0) + 1
    ctx.locks_cache = None
    return LockEvent(run.interp._next_label(), tid, site, f.call_index, obj.ref, depth)


def _release(run: FrameStack, f: Frame, op: Op):
    _, temp, node_id = op
    obj = f.temps[temp]
    tid = run.tid
    depth = obj.monitor.release(tid)
    held = run.ctx.held
    remaining = held.get(obj.ref, 0) - 1
    if remaining <= 0:
        held.pop(obj.ref, None)
    else:
        held[obj.ref] = remaining
    run.ctx.locks_cache = None
    return UnlockEvent(
        run.interp._next_label(), tid, f.node_id if node_id is None else node_id,
        f.call_index, obj.ref, depth,
    )


# ----------------------------------------------------------------------
# Calls.


def _invoke(run, f, receiver, decl, args, from_client, node_id, dst):
    """Push a frame running ``decl`` on ``receiver``; returns the
    invoke event.  The callee's epilogue stores its return value in the
    caller's temporary ``dst``."""
    interp = run.interp
    depth = f.depth + 1
    if depth > interp.max_call_depth:
        raise MiniJRuntimeError(
            "stack-overflow", f"calling {receiver.class_name}.{decl.name}", run.tid
        )
    if len(args) != len(decl.params):
        raise MiniJRuntimeError(
            "arity-mismatch",
            f"{receiver.class_name}.{decl.name} expects "
            f"{len(decl.params)} argument(s), got {len(args)}",
            run.tid,
        )
    call_index = interp._next_call_index
    interp._next_call_index = call_index + 1
    code = _compiled(decl, _method_unit)
    callee = run.frame = Frame(
        code, dict(zip(code.params, args)), receiver, call_index, depth, decl.name, f
    )
    callee.decl = decl
    callee.node_id = node_id
    callee.from_client = from_client
    callee.dst = dst
    if decl.is_constructor:
        run.ctx.ctor_depth += 1
    emit = interp._emit_invoke
    if emit is True:
        return InvokeEvent(
            interp._next_label(), run.tid, node_id, f.call_index, receiver.ref,
            receiver.class_name, decl.name, tuple(args), from_client,
            decl.is_constructor, call_index, depth,
        )
    label = interp._next_label()
    if emit is not None:
        emit(
            label, run.tid, node_id, f.call_index, receiver.ref,
            receiver.class_name, decl.name, args, from_client,
            decl.is_constructor, call_index, depth,
        )
    return SKIPPED_EVENT


def _epilogue(run: FrameStack, f: Frame, op: Op):
    decl = f.decl
    if decl.is_constructor:
        run.ctx.ctor_depth -= 1
    caller = run.frame = f.parent
    value = caller.temps[f.dst] = f.ret
    interp = run.interp
    emit = interp._emit_return
    if emit is True:
        return ReturnEvent(
            interp._next_label(), run.tid, f.node_id, caller.call_index, value,
            f.from_client, f.call_index, decl.name, f.this.class_name,
        )
    label = interp._next_label()
    if emit is not None:
        emit(
            label, run.tid, f.node_id, caller.call_index, value,
            f.from_client, f.call_index, decl.name, f.this.class_name,
        )
    return SKIPPED_EVENT


def _call_direct(run: FrameStack, f: Frame, op: Op):
    """The first instruction of a :meth:`Interpreter.call_method` thread."""
    _, receiver, method, args, from_client, node_id = op
    decl = run.interp._resolve_method(receiver.class_name, method)
    if decl is None:
        raise MiniJRuntimeError(
            "no-such-method", f"{receiver.class_name}.{method}", run.tid
        )
    return _invoke(run, f, receiver, decl, args, from_client, node_id, 0)


_CONDITION_METHODS = ("wait", "notify", "notifyAll")


def _call(run: FrameStack, f: Frame, op: Op):
    """``target.method(args)``: a user method, an array method, or one of
    ``java.lang.Object``'s condition methods (``waits``: a ``wait()``
    site, followed by its three wait ops)."""
    _, target, args, method, node_id, line, dst, waits = op
    receiver = target[0](run, f, target)
    values = [arg[0](run, f, arg) for arg in args]
    obj = _deref(run, receiver, line)
    interp = run.interp
    if (
        method in _CONDITION_METHODS
        and not values
        and interp._resolve_method(obj.class_name, method) is None
    ):
        return _condition_op(run, f, obj, method, node_id, line, dst)
    if obj.class_name in BUILTIN_METHODS:
        return _native(run, f, obj, method, values, node_id, line, dst)
    decl = interp._resolve_method(obj.class_name, method)
    if decl is None:
        raise MiniJRuntimeError("no-such-method", f"{obj.class_name}.{method}", run.tid)
    if waits:
        f.pc += len(_WAIT_HANDLERS)  # a user-defined wait(): return past them
    return _invoke(run, f, obj.handle(), decl, values, f.call_index == 0, node_id, dst)


def _native(run, f, obj, method, args, node_id, line, dst):
    """``get``/``set``/``length`` on the builtin arrays."""
    elements = obj.elements
    if elements is None or method not in ("get", "set", "length"):
        raise MiniJRuntimeError(
            "no-such-method", f"{obj.class_name}.{method} at line {line}", run.tid
        )
    if method == "length":
        f.temps[dst] = len(elements)
        return None
    index = _int(run, args[0], line)
    if not 0 <= index < len(elements):
        raise MiniJRuntimeError(
            "index-out-of-bounds",
            f"index {index} of {obj.class_name}#{obj.ref} "
            f"(length {len(elements)}) at line {line}",
            run.tid,
        )
    if method == "get":
        value = f.temps[dst] = elements[index]
        return _read(run, f, node_id, obj, "elem", value, index)
    old = elements[index]
    elements[index] = args[1]
    f.temps[dst] = None
    return _write(run, f, node_id, obj, "elem", args[1], index, old)


def _condition_op(run, f, obj, method, node_id, line, dst):
    """``java.lang.Object`` monitor methods on any object.

    ``wait`` fully releases the monitor (a real UnlockEvent, so
    happens-before detectors see the release) and parks the thread in
    the wait set; the wait ops that follow a ``wait()`` site then emit
    the WaitEvent and, once a notify removed the thread, reacquire the
    monitor at its previous reentrancy depth (a real LockEvent).  Like
    Java, a parked thread re-checks its wait-set membership whenever
    the monitor's state changes.
    """
    monitor = obj.monitor
    tid = run.tid
    if monitor.owner != tid:
        raise MiniJRuntimeError(
            "illegal-monitor-state",
            f"{method} on #{obj.ref} without owning its monitor at line {line}",
            tid,
        )
    f.temps[dst] = None
    label = run.interp._next_label()
    if method != "wait":
        if method == "notifyAll":
            woken = tuple(sorted(monitor.wait_set))
            monitor.wait_set.clear()
        elif monitor.wait_set:
            chosen = min(monitor.wait_set)
            monitor.wait_set.discard(chosen)
            woken = (chosen,)
        else:
            woken = ()
        return NotifyEvent(
            label, tid, node_id, f.call_index, obj.ref, woken, method == "notifyAll"
        )
    f.temps[dst + 1] = obj
    f.temps[dst + 2] = monitor.depth
    while monitor.depth > 0:
        monitor.release(tid)
    run.ctx.held.pop(obj.ref, None)
    run.ctx.locks_cache = None
    monitor.wait_set.add(tid)
    return UnlockEvent(label, tid, node_id, f.call_index, obj.ref, 0)


# The steps of ``wait()`` after its release: op ``(handler, node_id,
# temp)``, with the object in ``temp`` and the saved depth in ``temp + 1``.


def _waited(run: FrameStack, f: Frame, op: Op):
    _, node_id, temp = op
    return WaitEvent(
        run.interp._next_label(), run.tid, node_id, f.call_index, f.temps[temp].ref
    )


def _parked(run: FrameStack, f: Frame, op: Op):
    _, node_id, temp = op
    obj = f.temps[temp]
    if run.tid in obj.monitor.wait_set:
        f.pc -= 1
        return _blocked(run, f, node_id, obj)
    return None


def _reacquire(run: FrameStack, f: Frame, op: Op):
    _, node_id, temp = op
    obj = f.temps[temp]
    monitor = obj.monitor
    tid = run.tid
    if not monitor.can_acquire(tid):
        f.pc -= 1
        return _blocked(run, f, node_id, obj)
    saved = f.temps[temp + 1]
    for _ in range(saved):
        monitor.acquire(tid)
    run.ctx.held[obj.ref] = saved
    run.ctx.locks_cache = None
    return LockEvent(
        run.interp._next_label(), tid, node_id, f.call_index, obj.ref, saved
    )


_WAIT_HANDLERS = (_waited, _parked, _reacquire)


# ----------------------------------------------------------------------
# Allocation.


def _rand_object(run: FrameStack, f: Frame, op: Op):
    """Class-typed ``rand()``: a fresh library-private object."""
    _, class_name, node_id, dst = op
    interp = run.interp
    table = interp._table
    if table.is_interface(class_name) or not table.has_class(class_name):
        class_name = "Opaque"
    obj = interp._alloc_object(class_name, lib_allocated=True)
    f.temps[dst] = obj.handle()
    return _allocated(run, f, node_id, obj, True)


def _new_builtin(run: FrameStack, f: Frame, op: Op):
    _, args, class_name, node_id, line, dst = op
    values = [arg[0](run, f, arg) for arg in args]
    in_library = f.call_index != 0
    heap = run.interp._heap
    if class_name == "Opaque":
        obj = heap.alloc(class_name, {}, lib_allocated=in_library)
    else:
        obj = heap.alloc(
            class_name,
            {},
            lib_allocated=in_library,
            array_length=_int(run, values[0], line),
            array_elem_kind="int" if class_name == "IntArray" else "class",
        )
    f.temps[dst] = obj.handle()
    return _allocated(run, f, node_id, obj, in_library)


# ``new C(args)``: allocate, run the field initializers, then the
# constructor.  ``dst`` receives the handle and ``dst + 1`` the args.


def _alloc(run: FrameStack, f: Frame, op: Op):
    _, args, class_name, node_id, dst = op
    values = [arg[0](run, f, arg) for arg in args]
    in_library = f.call_index != 0
    obj = run.interp._alloc_object(class_name, in_library)
    f.temps[dst] = obj.handle()
    f.temps[dst + 1] = values
    return _allocated(run, f, node_id, obj, in_library)


def _initialize(run: FrameStack, f: Frame, op: Op) -> None:
    _, class_name, node_id, dst = op
    # Every allocation uses up a call index, initializers or not.
    interp = run.interp
    call_index = interp._next_call_index
    interp._next_call_index = call_index + 1
    code = interp._field_inits(class_name)
    if code is not None:
        frame = run.frame = Frame(
            code, {}, f.temps[dst], call_index, f.depth + 1, "<fieldinit>", f
        )
        frame.node_id = node_id
        run.ctx.ctor_depth += 1


def _construct(run: FrameStack, f: Frame, op: Op):
    _, class_name, node_id, dst = op
    ctor = run.interp._resolve_constructor(class_name)
    if ctor is None:
        return None
    return _invoke(run, f, f.temps[dst], ctor, f.temps[dst + 1],
                   f.call_index == 0, node_id, dst + 1)


def _init_write(run: FrameStack, f: Frame, op: Op):
    """One field initializer's write, a constructor-context access."""
    _, value, name = op
    new = value[0](run, f, value)
    obj = run.interp._heap.get(f.this.ref)
    old = obj.fields[name]
    obj.fields[name] = new
    return _write(run, f, f.node_id, obj, name, new, None, old)


def _init_end(run: FrameStack, f: Frame, op: Op) -> None:
    run.ctx.ctor_depth -= 1
    run.frame = f.parent


_EXIT, _FINISH, _RESULT = (_exit,), (_finish,), (_result,)
_EPILOGUE, _INIT_END = (_epilogue,), (_init_end,)
