"""The generator interpreter MiniJ ran on before the frame-stack engine.

The differential reference for :mod:`repro.runtime.interp`: every
statement and impure expression is a generator, joined by ``yield
from``, and pure subtrees are evaluated by plain recursion.  Resuming a
thread walks the whole generator chain, roughly a dozen Python frames
per MiniJ frame, so a deep MiniJ call chain needs a raised
``sys.setrecursionlimit``; callers that run deep programs on it raise
the limit themselves and restore it.

:func:`reference_vm` builds a :class:`~repro.runtime.vm.VM` whose
interpreter is this one.  Everything else (heap, labels, scheduling,
``Execution``) is the production code, so a run on it and a run on a
plain ``VM`` must produce the same trace, result and client
environment (``tests/runtime/test_engine_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro._util.errors import MiniJRuntimeError
from repro.lang import ast
from repro.lang.classtable import ClassTable
from repro.runtime.heap import Heap, HeapObject
from repro.runtime.interp import MAX_CALL_DEPTH, ForkRequest, ThreadContext
from repro.runtime.values import ObjRef, Value, values_equal
from repro.runtime.vm import VM
from repro.trace.events import (
    SKIPPED_EVENT,
    AllocEvent,
    BlockedEvent,
    Event,
    InvokeEvent,
    LockEvent,
    NotifyEvent,
    ReadEvent,
    ReturnEvent,
    UnlockEvent,
    WaitEvent,
    WriteEvent,
)

_MISSING = object()


def reference_vm(table: ClassTable, seed: int = 0) -> VM:
    """A VM that runs its threads on the reference interpreter."""
    vm = VM(table, seed=seed)
    vm.interp = Interpreter(table, vm.heap, vm.rng, vm._labels.take)
    return vm


@dataclass(slots=True)
class Frame:
    """One activation record.

    ``call_index`` scopes the invocation (0 = client level); ``depth`` is
    the library-call nesting depth (client = 0).
    """

    locals: dict[str, Value] = field(default_factory=dict)
    this: ObjRef | None = None
    class_name: str = ""
    method: str = ""
    call_index: int = 0
    depth: int = 0
    is_constructor: bool = False
    returned: bool = False
    return_value: Value = None

    @property
    def is_client(self) -> bool:
        return self.call_index == 0


class Interpreter:
    """Executes MiniJ code for one VM, one generator per thread.

    The interpreter does not schedule anything itself: callers drive the
    generators returned by :meth:`run_client_stmts` and receive events.
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

        # Event-construction elision flags (managed by Execution.run).
        self._emit_invoke = True
        self._emit_return = True
        self._emit_alloc = True
        self._emit_read = True
        self._emit_write = True

        # Per-class resolution caches.
        self._method_cache: dict[tuple[str, str], ast.MethodDecl | None] = {}
        self._ctor_cache: dict[str, ast.MethodDecl | None] = {}
        self._field_types_cache: dict[str, dict[str, str]] = {}
        self._field_inits_cache: dict[str, tuple[ast.FieldDecl, ...]] = {}

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
    # Event-construction elision (driven by Execution.run).

    def set_emit(self, modes: tuple) -> None:
        """Set which of the five data kinds are materialized.

        ``modes`` follows the engine's ``Interpreter.set_emit``: per
        invoke, return, alloc, read and write, True builds the event,
        None elides it, and a row writer asks for the row at the
        source.  This interpreter builds the event for a row writer
        instead; the Execution hands it to the recorder, which packs
        the same row.  Synchronization events are always built because
        the Execution itself inspects them.
        """
        (
            self._emit_invoke, self._emit_return, self._emit_alloc,
            self._emit_read, self._emit_write,
        ) = (mode is not None for mode in modes)

    # ------------------------------------------------------------------
    # Purity classification.

    def _expr_pure(self, expr: ast.Expr) -> bool:
        pure = getattr(expr, "_rt_pure", None)
        if pure is None:
            pure = self._classify_expr(expr)
            expr._rt_pure = pure
        return pure

    def _stmt_pure(self, stmt: ast.Stmt) -> bool:
        pure = getattr(stmt, "_rt_pure", None)
        if pure is None:
            pure = self._classify_stmt(stmt)
            stmt._rt_pure = pure
        return pure

    def _classify_expr(self, expr: ast.Expr) -> bool:
        cls = expr.__class__
        if cls in (ast.IntLit, ast.BoolLit, ast.NullLit, ast.This, ast.VarRef):
            return True
        if cls is ast.Rand:
            result_type = expr.result_type
            return result_type is None or result_type.kind != "class"
        if cls is ast.Binary:
            return self._classify_expr(expr.left) and self._classify_expr(expr.right)
        if cls is ast.Unary:
            return self._classify_expr(expr.operand)
        # FieldGet, New, Call — all emit events.
        return False

    def _classify_stmt(self, stmt: ast.Stmt) -> bool:
        cls = stmt.__class__
        if cls is ast.Block:
            return all(self._stmt_pure(s) for s in stmt.stmts)
        if cls is ast.VarDecl:
            return stmt.init is None or self._classify_expr(stmt.init)
        if cls is ast.AssignVar:
            return self._classify_expr(stmt.value)
        if cls is ast.If:
            return (
                self._classify_expr(stmt.cond)
                and self._stmt_pure(stmt.then_body)
                and (stmt.else_body is None or self._stmt_pure(stmt.else_body))
            )
        if cls is ast.While:
            return self._classify_expr(stmt.cond) and self._stmt_pure(stmt.body)
        if cls is ast.Return:
            return stmt.value is None or self._classify_expr(stmt.value)
        if cls is ast.Assert:
            return self._classify_expr(stmt.cond)
        if cls is ast.ExprStmt:
            return self._classify_expr(stmt.expr)
        # AssignField, Sync, Fork — all emit events (or fork).
        return False

    # ------------------------------------------------------------------
    # Entry points.

    def run_client_stmts(
        self, stmts: list[ast.Stmt], thread: ThreadContext, env: dict[str, Value]
    ) -> Iterator[Event]:
        """Execute client (test body) statements in the given thread.

        ``env`` is the client variable environment; it is mutated in
        place so callers can observe client variables afterwards (this is
        how the synthesizer's ``collectObjects`` captures references).
        """
        frame = Frame(locals=env, call_index=0, depth=0, class_name="<client>",
                      method="<client>")
        for stmt in stmts:
            if self._stmt_pure(stmt):
                self._exec_pure(stmt, frame, thread)
            else:
                yield from _EXEC[stmt.__class__](self, stmt, frame, thread)
            if frame.returned:
                break

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
    ) -> Iterator[Event]:
        """Invoke ``receiver.method(args)`` directly (no client statement).

        Used by synthesized-test thread bodies and the fuzzer.  The
        generator's return value is the method's return value.
        """
        return self._invoke(
            thread,
            receiver,
            method_name,
            args,
            from_client=from_client,
            caller_depth=caller_depth,
            node_id=node_id,
            caller_call_index=caller_call_index,
        )

    # ------------------------------------------------------------------
    # Statement execution (impure path: generators).

    def _exec(self, stmt: ast.Stmt, frame: Frame, thread: ThreadContext):
        """Execute one statement; generic entry kept for compatibility."""
        if self._stmt_pure(stmt):
            self._exec_pure(stmt, frame, thread)
            return
        yield from _EXEC[stmt.__class__](self, stmt, frame, thread)

    def _exec_block(self, stmt: ast.Block, frame: Frame, thread: ThreadContext):
        for inner in stmt.stmts:
            if self._stmt_pure(inner):
                self._exec_pure(inner, frame, thread)
            else:
                yield from _EXEC[inner.__class__](self, inner, frame, thread)
            if frame.returned:
                return

    def _exec_vardecl(self, stmt: ast.VarDecl, frame: Frame, thread: ThreadContext):
        # Impure path: stmt.init is present and emits events (a pure or
        # absent initializer is handled by _pure_vardecl).
        value = yield from _EVAL[stmt.init.__class__](
            self, stmt.init, frame, thread
        )
        frame.locals[stmt.name] = value

    def _exec_assignvar(self, stmt: ast.AssignVar, frame: Frame, thread: ThreadContext):
        value = yield from _EVAL[stmt.value.__class__](
            self, stmt.value, frame, thread
        )
        frame.locals[stmt.name] = value

    def _exec_if(self, stmt: ast.If, frame: Frame, thread: ThreadContext):
        cond_expr = stmt.cond
        if self._expr_pure(cond_expr):
            cond = self._eval_pure(cond_expr, frame, thread)
        else:
            cond = yield from _EVAL[cond_expr.__class__](
                self, cond_expr, frame, thread
            )
        self._require_bool(cond, stmt.line, thread)
        branch = stmt.then_body if cond else stmt.else_body
        if branch is None:
            return
        if self._stmt_pure(branch):
            self._exec_pure(branch, frame, thread)
        else:
            yield from _EXEC[branch.__class__](self, branch, frame, thread)

    def _exec_while(self, stmt: ast.While, frame: Frame, thread: ThreadContext):
        cond_expr = stmt.cond
        body = stmt.body
        cond_pure = self._expr_pure(cond_expr)
        body_pure = self._stmt_pure(body)
        while True:
            if cond_pure:
                cond = self._eval_pure(cond_expr, frame, thread)
            else:
                cond = yield from _EVAL[cond_expr.__class__](
                    self, cond_expr, frame, thread
                )
            self._require_bool(cond, stmt.line, thread)
            if not cond:
                break
            if body_pure:
                self._exec_pure(body, frame, thread)
            else:
                yield from _EXEC[body.__class__](self, body, frame, thread)
            if frame.returned:
                return

    def _exec_return(self, stmt: ast.Return, frame: Frame, thread: ThreadContext):
        if stmt.value is not None:
            frame.return_value = yield from _EVAL[stmt.value.__class__](
                self, stmt.value, frame, thread
            )
        frame.returned = True

    def _exec_assert(self, stmt: ast.Assert, frame: Frame, thread: ThreadContext):
        cond = yield from _EVAL[stmt.cond.__class__](
            self, stmt.cond, frame, thread
        )
        self._assert_check(cond, stmt, frame, thread)

    def _exec_fork(self, stmt: ast.Fork, frame: Frame, thread: ThreadContext):
        if not frame.is_client:
            raise MiniJRuntimeError(
                "fork-in-library",
                f"fork at line {stmt.line} outside a test body",
                thread.thread_id,
            )
        yield ForkRequest(
            stmts=stmt.body.stmts,
            env=dict(frame.locals),
            node_id=stmt.node_id,
        )

    def _exec_exprstmt(self, stmt: ast.ExprStmt, frame: Frame, thread: ThreadContext):
        yield from _EVAL[stmt.expr.__class__](self, stmt.expr, frame, thread)

    def _assert_check(
        self, cond: Value, stmt: ast.Assert, frame: Frame, thread: ThreadContext
    ) -> None:
        if cond is not True:
            raise MiniJRuntimeError(
                "assertion-failed",
                f"assert at line {stmt.line} in "
                f"{frame.class_name}.{frame.method}",
                thread.thread_id,
            )

    def _exec_field_write(
        self, stmt: ast.AssignField, frame: Frame, thread: ThreadContext
    ):
        target_expr = stmt.target
        if self._expr_pure(target_expr):
            target = self._eval_pure(target_expr, frame, thread)
        else:
            target = yield from _EVAL[target_expr.__class__](
                self, target_expr, frame, thread
            )
        obj = self._require_object(target, stmt.line, thread)
        value_expr = stmt.value
        if self._expr_pure(value_expr):
            value = self._eval_pure(value_expr, frame, thread)
        else:
            value = yield from _EVAL[value_expr.__class__](
                self, value_expr, frame, thread
            )
        fields = obj.fields
        name = stmt.field_name
        if name not in fields:
            raise MiniJRuntimeError(
                "no-such-field",
                f"{obj.class_name}.{name} at line {stmt.line}",
                thread.thread_id,
            )
        old_value = fields[name]
        fields[name] = value
        if self._emit_write:
            yield WriteEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=stmt.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                class_name=obj.class_name,
                field_name=name,
                value=value,
                old_value=old_value,
                locks_held=thread.locks_held(),
                in_constructor=thread.ctor_depth > 0,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT

    def _exec_sync(self, stmt: ast.Sync, frame: Frame, thread: ThreadContext):
        lock_expr = stmt.lock
        if self._expr_pure(lock_expr):
            lock_value = self._eval_pure(lock_expr, frame, thread)
        else:
            lock_value = yield from _EVAL[lock_expr.__class__](
                self, lock_expr, frame, thread
            )
        obj = self._require_object(lock_value, stmt.line, thread)
        yield from self._acquire(obj, frame, thread, stmt.node_id)
        body = stmt.body
        if self._stmt_pure(body):
            self._exec_pure(body, frame, thread)
        else:
            yield from _EXEC[body.__class__](self, body, frame, thread)
        yield from self._release(obj, frame, thread, stmt.node_id)

    # ------------------------------------------------------------------
    # Statement execution (pure path: plain recursion, no yields).

    def _exec_pure(self, stmt: ast.Stmt, frame: Frame, thread: ThreadContext) -> None:
        _PURE_EXEC[stmt.__class__](self, stmt, frame, thread)

    def _pure_block(self, stmt: ast.Block, frame: Frame, thread: ThreadContext) -> None:
        for inner in stmt.stmts:
            _PURE_EXEC[inner.__class__](self, inner, frame, thread)
            if frame.returned:
                return

    def _pure_vardecl(self, stmt: ast.VarDecl, frame: Frame, thread: ThreadContext) -> None:
        if stmt.init is not None:
            frame.locals[stmt.name] = self._eval_pure(stmt.init, frame, thread)
        else:
            frame.locals[stmt.name] = _default_for(stmt.decl_type.kind)

    def _pure_assignvar(self, stmt: ast.AssignVar, frame: Frame, thread: ThreadContext) -> None:
        frame.locals[stmt.name] = self._eval_pure(stmt.value, frame, thread)

    def _pure_if(self, stmt: ast.If, frame: Frame, thread: ThreadContext) -> None:
        cond = self._eval_pure(stmt.cond, frame, thread)
        self._require_bool(cond, stmt.line, thread)
        if cond:
            _PURE_EXEC[stmt.then_body.__class__](
                self, stmt.then_body, frame, thread
            )
        elif stmt.else_body is not None:
            _PURE_EXEC[stmt.else_body.__class__](
                self, stmt.else_body, frame, thread
            )

    def _pure_while(self, stmt: ast.While, frame: Frame, thread: ThreadContext) -> None:
        cond_expr = stmt.cond
        body = stmt.body
        body_exec = _PURE_EXEC[body.__class__]
        while True:
            cond = self._eval_pure(cond_expr, frame, thread)
            self._require_bool(cond, stmt.line, thread)
            if not cond:
                return
            body_exec(self, body, frame, thread)
            if frame.returned:
                return

    def _pure_return(self, stmt: ast.Return, frame: Frame, thread: ThreadContext) -> None:
        if stmt.value is not None:
            frame.return_value = self._eval_pure(stmt.value, frame, thread)
        frame.returned = True

    def _pure_assert(self, stmt: ast.Assert, frame: Frame, thread: ThreadContext) -> None:
        cond = self._eval_pure(stmt.cond, frame, thread)
        self._assert_check(cond, stmt, frame, thread)

    def _pure_exprstmt(self, stmt: ast.ExprStmt, frame: Frame, thread: ThreadContext) -> None:
        self._eval_pure(stmt.expr, frame, thread)

    # ------------------------------------------------------------------
    # Monitors.

    def _acquire(self, obj: HeapObject, frame: Frame, thread: ThreadContext, node_id: int):
        monitor = obj.monitor
        tid = thread.thread_id
        while not monitor.can_acquire(tid):
            yield BlockedEvent(
                label=self._next_label(),
                thread_id=tid,
                node_id=node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                owner_thread=monitor.owner if monitor.owner is not None else -1,
            )
        depth = monitor.acquire(tid)
        held = thread.held
        held[obj.ref] = held.get(obj.ref, 0) + 1
        thread.locks_cache = None
        yield LockEvent(
            label=self._next_label(),
            thread_id=tid,
            node_id=node_id,
            call_index=frame.call_index,
            obj=obj.ref,
            reentrancy=depth,
        )

    def _release(self, obj: HeapObject, frame: Frame, thread: ThreadContext, node_id: int):
        depth = obj.monitor.release(thread.thread_id)
        held = thread.held
        remaining = held.get(obj.ref, 0) - 1
        if remaining <= 0:
            held.pop(obj.ref, None)
        else:
            held[obj.ref] = remaining
        thread.locks_cache = None
        yield UnlockEvent(
            label=self._next_label(),
            thread_id=thread.thread_id,
            node_id=node_id,
            call_index=frame.call_index,
            obj=obj.ref,
            reentrancy=depth,
        )

    # ------------------------------------------------------------------
    # Expression evaluation (pure path).

    def _eval_pure(self, expr: ast.Expr, frame: Frame, thread: ThreadContext):
        return _PURE_EVAL[expr.__class__](self, expr, frame, thread)

    def _pure_intlit(self, expr, frame, thread):
        return expr.value

    def _pure_nulllit(self, expr, frame, thread):
        return None

    def _pure_this(self, expr, frame, thread):
        return frame.this

    def _pure_varref(self, expr, frame, thread):
        try:
            return frame.locals[expr.name]
        except KeyError:
            raise MiniJRuntimeError(
                "undefined-variable",
                f"{expr.name} at line {expr.line}",
                thread.thread_id,
            ) from None

    def _pure_rand(self, expr, frame, thread):
        # Class-typed rand() allocates and is classified impure; only the
        # int draw reaches this path.
        return self._rng.randrange(1 << 16)

    def _pure_unary(self, expr, frame, thread):
        operand = self._eval_pure(expr.operand, frame, thread)
        if expr.op == "!":
            self._require_bool(operand, expr.line, thread)
            return not operand
        self._require_int(operand, expr.line, thread)
        return -operand

    def _pure_binary(self, expr, frame, thread):
        op = expr.op
        if op == "&&":
            left = self._eval_pure(expr.left, frame, thread)
            self._require_bool(left, expr.line, thread)
            if not left:
                return False
            right = self._eval_pure(expr.right, frame, thread)
            self._require_bool(right, expr.line, thread)
            return right
        if op == "||":
            left = self._eval_pure(expr.left, frame, thread)
            self._require_bool(left, expr.line, thread)
            if left:
                return True
            right = self._eval_pure(expr.right, frame, thread)
            self._require_bool(right, expr.line, thread)
            return right
        left = self._eval_pure(expr.left, frame, thread)
        right = self._eval_pure(expr.right, frame, thread)
        return self._apply_binop(op, left, right, expr.line, thread)

    # ------------------------------------------------------------------
    # Expression evaluation (impure path: generators).

    def _eval(self, expr: ast.Expr | None, frame: Frame, thread: ThreadContext):
        """Evaluate one expression; generic entry kept for compatibility."""
        if expr is None:
            return None
        if self._expr_pure(expr):
            return self._eval_pure(expr, frame, thread)
        return (yield from _EVAL[expr.__class__](self, expr, frame, thread))

    def _eval_pure_gen(self, expr, frame, thread):
        # Generator-shaped wrapper so _EVAL is total over Expr.
        return self._eval_pure(expr, frame, thread)
        yield  # pragma: no cover - makes this a generator function

    def _eval_unary(self, expr: ast.Unary, frame: Frame, thread: ThreadContext):
        operand = yield from self._eval(expr.operand, frame, thread)
        if expr.op == "!":
            self._require_bool(operand, expr.line, thread)
            return not operand
        self._require_int(operand, expr.line, thread)
        return -operand

    def _eval_rand(self, expr: ast.Rand, frame: Frame, thread: ThreadContext):
        result_type = expr.result_type
        if result_type is not None and result_type.kind == "class":
            class_name = result_type.name
            if self._table.is_interface(class_name) or not self._table.has_class(
                class_name
            ):
                class_name = "Opaque"
            obj = self._alloc_object(class_name, lib_allocated=True)
            if self._emit_alloc:
                yield AllocEvent(
                    label=self._next_label(),
                    thread_id=thread.thread_id,
                    node_id=expr.node_id,
                    call_index=frame.call_index,
                    ref=obj.ref,
                    class_name=obj.class_name,
                    in_library=True,
                )
            else:
                self._next_label()
                yield SKIPPED_EVENT
            return obj.handle()
        return self._rng.randrange(1 << 16)

    def _eval_field_get(self, expr: ast.FieldGet, frame: Frame, thread: ThreadContext):
        target_expr = expr.target
        if self._expr_pure(target_expr):
            target = self._eval_pure(target_expr, frame, thread)
        else:
            target = yield from _EVAL[target_expr.__class__](
                self, target_expr, frame, thread
            )
        obj = self._require_object(target, expr.line, thread)
        name = expr.field_name
        fields = obj.fields
        if name not in fields:
            if obj.elements is not None and name == "length":
                return len(obj.elements)
            raise MiniJRuntimeError(
                "no-such-field",
                f"{obj.class_name}.{name} at line {expr.line}",
                thread.thread_id,
            )
        value = fields[name]
        if self._emit_read:
            yield ReadEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                class_name=obj.class_name,
                field_name=name,
                value=value,
                locks_held=thread.locks_held(),
                in_constructor=thread.ctor_depth > 0,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        return value

    def _eval_new(self, expr: ast.New, frame: Frame, thread: ThreadContext):
        args: list[Value] = []
        for arg_expr in expr.args:
            if self._expr_pure(arg_expr):
                args.append(self._eval_pure(arg_expr, frame, thread))
            else:
                arg = yield from _EVAL[arg_expr.__class__](
                    self, arg_expr, frame, thread
                )
                args.append(arg)
        class_name = expr.class_name

        if self._table.is_builtin(class_name):
            return (yield from self._alloc_builtin(expr, class_name, args, frame, thread))

        obj = self._alloc_object(class_name, lib_allocated=not frame.is_client)
        if self._emit_alloc:
            yield AllocEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                ref=obj.ref,
                class_name=class_name,
                in_library=not frame.is_client,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        yield from self._run_field_initializers(obj, expr, frame, thread)
        ctor = self._resolve_constructor(class_name)
        if ctor is not None:
            yield from self._invoke_decl(
                thread,
                obj.handle(),
                ctor,
                args,
                from_client=frame.is_client,
                caller_depth=frame.depth,
                node_id=expr.node_id,
                caller_call_index=frame.call_index,
            )
        return obj.handle()

    def _alloc_builtin(
        self,
        expr: ast.New,
        class_name: str,
        args: list[Value],
        frame: Frame,
        thread: ThreadContext,
    ):
        if class_name in ("IntArray", "RefArray"):
            length = args[0]
            self._require_int(length, expr.line, thread)
            elem_kind = "int" if class_name == "IntArray" else "class"
            obj = self._heap.alloc(
                class_name,
                {},
                lib_allocated=not frame.is_client,
                array_length=length,
                array_elem_kind=elem_kind,
            )
        else:  # Opaque
            obj = self._heap.alloc(class_name, {}, lib_allocated=not frame.is_client)
        if self._emit_alloc:
            yield AllocEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                ref=obj.ref,
                class_name=class_name,
                in_library=not frame.is_client,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        return obj.handle()

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

    def _run_field_initializers(
        self, obj: HeapObject, new_expr: ast.New, frame: Frame, thread: ThreadContext
    ):
        """Run declared field initializers as constructor-context writes."""
        inits = self._field_inits_cache.get(obj.class_name)
        if inits is None:
            cls = self._table.class_decl(obj.class_name)
            inits = tuple(f for f in cls.fields if f.init is not None)
            self._field_inits_cache[obj.class_name] = inits
        if not inits:
            # Keep call-index numbering identical to the uncached
            # interpreter, which scoped a (possibly empty) initializer
            # frame for every allocation.
            self._fresh_call_index()
            return
        init_frame = Frame(
            this=obj.handle(),
            class_name=obj.class_name,
            method="<fieldinit>",
            call_index=self._fresh_call_index(),
            depth=frame.depth + 1,
            is_constructor=True,
        )
        thread.ctor_depth += 1
        try:
            for field_decl in inits:
                value = yield from self._eval(field_decl.init, init_frame, thread)
                old_value = obj.fields[field_decl.name]
                obj.fields[field_decl.name] = value
                if self._emit_write:
                    yield WriteEvent(
                        label=self._next_label(),
                        thread_id=thread.thread_id,
                        node_id=new_expr.node_id,
                        call_index=init_frame.call_index,
                        obj=obj.ref,
                        class_name=obj.class_name,
                        field_name=field_decl.name,
                        value=value,
                        old_value=old_value,
                        locks_held=thread.locks_held(),
                        in_constructor=True,
                    )
                else:
                    self._next_label()
                    yield SKIPPED_EVENT
        finally:
            thread.ctor_depth -= 1

    def _eval_call(self, expr: ast.Call, frame: Frame, thread: ThreadContext):
        target_expr = expr.target
        if self._expr_pure(target_expr):
            target = self._eval_pure(target_expr, frame, thread)
        else:
            target = yield from _EVAL[target_expr.__class__](
                self, target_expr, frame, thread
            )
        args: list[Value] = []
        for arg_expr in expr.args:
            if self._expr_pure(arg_expr):
                args.append(self._eval_pure(arg_expr, frame, thread))
            else:
                arg = yield from _EVAL[arg_expr.__class__](
                    self, arg_expr, frame, thread
                )
                args.append(arg)
        obj = self._require_object(target, expr.line, thread)
        method_name = expr.method
        if (
            method_name in ("wait", "notify", "notifyAll")
            and not args
            and self._resolve_method(obj.class_name, method_name) is None
        ):
            # java.lang.Object condition methods, available on any object.
            return (yield from self._condition_op(obj, expr, frame, thread))
        if self._table.is_builtin(obj.class_name):
            return (yield from self._call_native(obj, expr, args, frame, thread))
        decl = self._resolve_method(obj.class_name, method_name)
        if decl is None:
            raise MiniJRuntimeError(
                "no-such-method",
                f"{obj.class_name}.{method_name}",
                thread.thread_id,
            )
        return (
            yield from self._invoke_decl(
                thread,
                obj.handle(),
                decl,
                args,
                from_client=frame.is_client,
                caller_depth=frame.depth,
                node_id=expr.node_id,
                caller_call_index=frame.call_index,
            )
        )

    def _call_native(
        self,
        obj: HeapObject,
        expr: ast.Call,
        args: list[Value],
        frame: Frame,
        thread: ThreadContext,
    ):
        method = expr.method
        if obj.elements is None or method not in ("get", "set", "length"):
            raise MiniJRuntimeError(
                "no-such-method",
                f"{obj.class_name}.{method} at line {expr.line}",
                thread.thread_id,
            )
        if method == "length":
            return len(obj.elements)
        index = args[0]
        self._require_int(index, expr.line, thread)
        if not 0 <= index < len(obj.elements):
            raise MiniJRuntimeError(
                "index-out-of-bounds",
                f"index {index} of {obj.class_name}#{obj.ref} "
                f"(length {len(obj.elements)}) at line {expr.line}",
                thread.thread_id,
            )
        if method == "get":
            value = obj.elements[index]
            if self._emit_read:
                yield ReadEvent(
                    label=self._next_label(),
                    thread_id=thread.thread_id,
                    node_id=expr.node_id,
                    call_index=frame.call_index,
                    obj=obj.ref,
                    class_name=obj.class_name,
                    field_name="elem",
                    value=value,
                    locks_held=thread.locks_held(),
                    elem_index=index,
                    in_constructor=thread.ctor_depth > 0,
                )
            else:
                self._next_label()
                yield SKIPPED_EVENT
            return value
        old_value = obj.elements[index]
        obj.elements[index] = args[1]
        if self._emit_write:
            yield WriteEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                class_name=obj.class_name,
                field_name="elem",
                value=args[1],
                old_value=old_value,
                locks_held=thread.locks_held(),
                elem_index=index,
                in_constructor=thread.ctor_depth > 0,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        return None

    # ------------------------------------------------------------------
    # Condition synchronization: wait / notify / notifyAll.

    def _condition_op(self, obj: HeapObject, expr: ast.Call, frame: Frame,
                      thread: ThreadContext):
        """``java.lang.Object`` monitor methods on any object.

        ``wait`` fully releases the monitor (emitting a real UnlockEvent
        so happens-before detectors see the release), parks the thread
        in the wait set, and — once removed by a notify — reacquires the
        monitor at its previous reentrancy depth (a real LockEvent).
        Wake-ups may be spurious, exactly like Java: a parked thread
        re-checks its wait-set membership whenever the monitor's state
        changes.
        """
        monitor = obj.monitor
        if monitor.owner != thread.thread_id:
            raise MiniJRuntimeError(
                "illegal-monitor-state",
                f"{expr.method} on #{obj.ref} without owning its monitor "
                f"at line {expr.line}",
                thread.thread_id,
            )
        if expr.method in ("notify", "notifyAll"):
            if expr.method == "notifyAll":
                woken = tuple(sorted(monitor.wait_set))
                monitor.wait_set.clear()
            elif monitor.wait_set:
                chosen = min(monitor.wait_set)
                monitor.wait_set.discard(chosen)
                woken = (chosen,)
            else:
                woken = ()
            yield NotifyEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                woken=woken,
                notify_all=expr.method == "notifyAll",
            )
            return None

        # wait(): release completely, park, reacquire at saved depth.
        saved_depth = monitor.depth
        while monitor.depth > 0:
            monitor.release(thread.thread_id)
        thread.held.pop(obj.ref, None)
        thread.locks_cache = None
        monitor.wait_set.add(thread.thread_id)
        yield UnlockEvent(
            label=self._next_label(),
            thread_id=thread.thread_id,
            node_id=expr.node_id,
            call_index=frame.call_index,
            obj=obj.ref,
            reentrancy=0,
        )
        yield WaitEvent(
            label=self._next_label(),
            thread_id=thread.thread_id,
            node_id=expr.node_id,
            call_index=frame.call_index,
            obj=obj.ref,
        )
        while thread.thread_id in monitor.wait_set:
            yield BlockedEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                owner_thread=monitor.owner if monitor.owner is not None else -1,
            )
        while not monitor.can_acquire(thread.thread_id):
            yield BlockedEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=expr.node_id,
                call_index=frame.call_index,
                obj=obj.ref,
                owner_thread=monitor.owner if monitor.owner is not None else -1,
            )
        for _ in range(saved_depth):
            monitor.acquire(thread.thread_id)
        thread.held[obj.ref] = saved_depth
        thread.locks_cache = None
        yield LockEvent(
            label=self._next_label(),
            thread_id=thread.thread_id,
            node_id=expr.node_id,
            call_index=frame.call_index,
            obj=obj.ref,
            reentrancy=saved_depth,
        )
        return None

    # ------------------------------------------------------------------
    # Invocation machinery.

    def _fresh_call_index(self) -> int:
        index = self._next_call_index
        self._next_call_index += 1
        return index

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

    def _invoke(
        self,
        thread: ThreadContext,
        receiver: ObjRef,
        method_name: str,
        args: list[Value],
        from_client: bool,
        caller_depth: int,
        node_id: int,
        caller_call_index: int,
    ):
        decl = self._resolve_method(receiver.class_name, method_name)
        if decl is None:
            raise MiniJRuntimeError(
                "no-such-method",
                f"{receiver.class_name}.{method_name}",
                thread.thread_id,
            )
        return (
            yield from self._invoke_decl(
                thread,
                receiver,
                decl,
                args,
                from_client=from_client,
                caller_depth=caller_depth,
                node_id=node_id,
                caller_call_index=caller_call_index,
            )
        )

    def _invoke_decl(
        self,
        thread: ThreadContext,
        receiver: ObjRef,
        decl: ast.MethodDecl,
        args: list[Value],
        from_client: bool,
        caller_depth: int,
        node_id: int,
        caller_call_index: int,
    ):
        if caller_depth + 1 > self.max_call_depth:
            raise MiniJRuntimeError(
                "stack-overflow",
                f"calling {receiver.class_name}.{decl.name}",
                thread.thread_id,
            )
        if len(args) != len(decl.params):
            raise MiniJRuntimeError(
                "arity-mismatch",
                f"{receiver.class_name}.{decl.name} expects "
                f"{len(decl.params)} argument(s), got {len(args)}",
                thread.thread_id,
            )
        call_index = self._fresh_call_index()
        if self._emit_invoke:
            yield InvokeEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=node_id,
                call_index=caller_call_index,
                receiver=receiver.ref,
                class_name=receiver.class_name,
                method=decl.name,
                args=tuple(args),
                from_client=from_client,
                is_constructor=decl.is_constructor,
                new_call_index=call_index,
                depth=caller_depth + 1,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        frame = Frame(
            locals={p.name: v for p, v in zip(decl.params, args)},
            this=receiver,
            class_name=receiver.class_name,
            method=decl.name,
            call_index=call_index,
            depth=caller_depth + 1,
            is_constructor=decl.is_constructor,
        )
        if decl.is_constructor:
            thread.ctor_depth += 1
        receiver_obj = self._heap.get(receiver.ref)
        body = decl.body
        try:
            if decl.synchronized:
                yield from self._acquire(receiver_obj, frame, thread, node_id)
            if self._stmt_pure(body):
                self._exec_pure(body, frame, thread)
            else:
                yield from _EXEC[body.__class__](self, body, frame, thread)
            if decl.synchronized:
                yield from self._release(receiver_obj, frame, thread, node_id)
        finally:
            if decl.is_constructor:
                thread.ctor_depth -= 1
        if self._emit_return:
            yield ReturnEvent(
                label=self._next_label(),
                thread_id=thread.thread_id,
                node_id=node_id,
                call_index=caller_call_index,
                value=frame.return_value,
                to_client=from_client,
                returning_call_index=call_index,
                method=decl.name,
                class_name=receiver.class_name,
            )
        else:
            self._next_label()
            yield SKIPPED_EVENT
        return frame.return_value

    # ------------------------------------------------------------------
    # Fault helpers.

    def _require_object(self, value: Value, line: int, thread: ThreadContext) -> HeapObject:
        if not isinstance(value, ObjRef):
            kind = "null-dereference" if value is None else "type-error"
            raise MiniJRuntimeError(
                kind, f"dereference of {value!r} at line {line}", thread.thread_id
            )
        return self._heap.get(value.ref)

    def _require_bool(self, value: Value, line: int, thread: ThreadContext) -> None:
        if value is not True and value is not False:
            raise MiniJRuntimeError(
                "type-error", f"expected bool at line {line}, got {value!r}",
                thread.thread_id,
            )

    def _require_int(self, value: Value, line: int, thread: ThreadContext) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MiniJRuntimeError(
                "type-error", f"expected int at line {line}, got {value!r}",
                thread.thread_id,
            )

    def _apply_binop(self, op: str, left, right, line: int, thread: ThreadContext):
        """Non-short-circuit binary operators, Java semantics."""
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        self._require_int(left, line, thread)
        self._require_int(right, line, thread)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op in ("/", "%"):
            if right == 0:
                raise MiniJRuntimeError(
                    "division-by-zero", f"at line {line}", thread.thread_id
                )
            # Match Java semantics: truncation toward zero.
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            if op == "/":
                return quotient
            return left - quotient * right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise AssertionError(f"unknown operator {op}")

    def _eval_binary(self, expr: ast.Binary, frame: Frame, thread: ThreadContext):
        op = expr.op
        if op == "&&":
            left = yield from self._eval(expr.left, frame, thread)
            self._require_bool(left, expr.line, thread)
            if not left:
                return False
            right = yield from self._eval(expr.right, frame, thread)
            self._require_bool(right, expr.line, thread)
            return right
        if op == "||":
            left = yield from self._eval(expr.left, frame, thread)
            self._require_bool(left, expr.line, thread)
            if left:
                return True
            right = yield from self._eval(expr.right, frame, thread)
            self._require_bool(right, expr.line, thread)
            return right

        left_expr = expr.left
        if self._expr_pure(left_expr):
            left = self._eval_pure(left_expr, frame, thread)
        else:
            left = yield from _EVAL[left_expr.__class__](
                self, left_expr, frame, thread
            )
        right_expr = expr.right
        if self._expr_pure(right_expr):
            right = self._eval_pure(right_expr, frame, thread)
        else:
            right = yield from _EVAL[right_expr.__class__](
                self, right_expr, frame, thread
            )
        return self._apply_binop(op, left, right, expr.line, thread)


def _default_for(kind: str) -> Value:
    if kind == "int":
        return 0
    if kind == "bool":
        return False
    return None


# Type-keyed dispatch tables (replace isinstance chains).  They hold
# plain functions, called with the interpreter as their first argument:
# per-instance tables of bound methods would make every interpreter a
# reference cycle that only the cyclic garbage collector frees.
_EXEC: dict[type, Callable] = {
    ast.Block: Interpreter._exec_block,
    ast.VarDecl: Interpreter._exec_vardecl,
    ast.AssignVar: Interpreter._exec_assignvar,
    ast.AssignField: Interpreter._exec_field_write,
    ast.If: Interpreter._exec_if,
    ast.While: Interpreter._exec_while,
    ast.Return: Interpreter._exec_return,
    ast.Sync: Interpreter._exec_sync,
    ast.Assert: Interpreter._exec_assert,
    ast.Fork: Interpreter._exec_fork,
    ast.ExprStmt: Interpreter._exec_exprstmt,
}
_EVAL: dict[type, Callable] = {
    ast.Rand: Interpreter._eval_rand,
    ast.FieldGet: Interpreter._eval_field_get,
    ast.New: Interpreter._eval_new,
    ast.Call: Interpreter._eval_call,
    ast.Binary: Interpreter._eval_binary,
    ast.Unary: Interpreter._eval_unary,
    # Pure node kinds appear here too so that _eval stays correct
    # when handed one directly.
    ast.IntLit: Interpreter._eval_pure_gen,
    ast.BoolLit: Interpreter._eval_pure_gen,
    ast.NullLit: Interpreter._eval_pure_gen,
    ast.This: Interpreter._eval_pure_gen,
    ast.VarRef: Interpreter._eval_pure_gen,
}
_PURE_EVAL: dict[type, Callable] = {
    ast.IntLit: Interpreter._pure_intlit,
    ast.BoolLit: Interpreter._pure_intlit,  # same shape: .value
    ast.NullLit: Interpreter._pure_nulllit,
    ast.This: Interpreter._pure_this,
    ast.VarRef: Interpreter._pure_varref,
    ast.Rand: Interpreter._pure_rand,
    ast.Binary: Interpreter._pure_binary,
    ast.Unary: Interpreter._pure_unary,
}
_PURE_EXEC: dict[type, Callable] = {
    ast.Block: Interpreter._pure_block,
    ast.VarDecl: Interpreter._pure_vardecl,
    ast.AssignVar: Interpreter._pure_assignvar,
    ast.If: Interpreter._pure_if,
    ast.While: Interpreter._pure_while,
    ast.Return: Interpreter._pure_return,
    ast.Assert: Interpreter._pure_assert,
    ast.ExprStmt: Interpreter._pure_exprstmt,
}
