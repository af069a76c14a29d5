"""Stage 3 of Narada: the Test Synthesizer (§3.4, Algorithm 1).

A :class:`SynthesizedTest` packages a context-derivation plan into an
*executable* multithreaded test:

1. **collectObjects** — for every planned call, the runner re-runs the
   originating seed test in a shared VM and suspends just before the
   corresponding invocation, capturing receiver and argument references
   (:mod:`repro.synth.collect`).
2. **shareObjects** — plan slots that must be the same instance are the
   same :class:`ObjectSlot`; the first capture that mentions a slot
   binds it, and every later occurrence reuses the binding — which is
   precisely the re-arrangement shown in the paper's Table 2.
3. The context-setting calls run sequentially on the main thread, then
   two threads are spawned that perform the racy invocations
   concurrently (Algorithm 1, lines 6-9).

The concrete test body is built as MiniJ client statements over an
environment pre-populated with the captured objects, so a synthesized
test is both runnable on the VM and printable in the Figure-3 style.

Tests are deduplicated across pairs: multiple unprotected accesses of
the same field reached through the same method pair and context collapse
into one test (the paper synthesizes 101 tests for 466 pairs this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.errors import SynthesisError
from repro.context.plan import PlannedCall, SeedArg, SidePlan, SlotArg, TestPlan
from repro.lang import ast
from repro.lang.classtable import ClassTable
from repro.pairs.generator import RacyPair
from repro.runtime.interp import ClientStmts
from repro.runtime.values import ObjRef, Value
from repro.synth.collect import Key, SeedCollector, SeedTrie
from repro.runtime.vm import VM

#: node_id namespace for statements fabricated by the synthesizer; far
#: above anything the parser assigns, so sites never collide.
SYNTH_NODE_BASE = 10_000_000


@dataclass
class SynthesizedTest:
    """One executable multithreaded test covering >= 1 racy pairs."""

    name: str
    plan: TestPlan
    covered_pairs: list[RacyPair] = field(default_factory=list)

    @property
    def pair(self) -> RacyPair:
        return self.plan.pair

    def target_sites(self) -> set[tuple[int, int]]:
        """Static site pairs this test aims to race (for the fuzzer)."""
        sites: set[tuple[int, int]] = set()
        for pair in self.covered_pairs:
            sites |= pair.site_pairs
            first = pair.first.access.node_id
            second = pair.second.access.node_id
            sites.add((min(first, second), max(first, second)))
        return sites

    def describe(self) -> str:
        lines = [f"test {self.name} covering {len(self.covered_pairs)} pair(s):"]
        for pair in self.covered_pairs:
            lines.append(f"  {pair.describe()}")
        lines.append(self.plan.describe())
        return "\n".join(lines)


def plan_signature(plan: TestPlan) -> tuple:
    """Dedup key: method pair + field + context shape."""

    def side_sig(side: SidePlan) -> tuple:
        return (
            side.side.method_id(),
            tuple(c.summary.method_id() for c in side.setter_calls),
            side.shared_depth,
        )

    sides = sorted([side_sig(plan.left), side_sig(plan.right)])
    shared_class = plan.shared_slot.class_name if plan.shared_slot else None
    return (tuple(sides), shared_class, plan.receivers_shared)


class TestSynthesizer:
    """Builds deduplicated synthesized tests from derived plans."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, table: ClassTable, name_prefix: str = "Racy") -> None:
        self._table = table
        self._prefix = name_prefix

    def synthesize(self, plans: list[TestPlan]) -> list[SynthesizedTest]:
        by_signature: dict[tuple, SynthesizedTest] = {}
        for plan in plans:
            signature = plan_signature(plan)
            existing = by_signature.get(signature)
            if existing is None:
                test = SynthesizedTest(
                    name=f"{self._prefix}{len(by_signature) + 1:03d}",
                    plan=plan,
                    covered_pairs=[plan.pair],
                )
                by_signature[signature] = test
            else:
                existing.covered_pairs.append(plan.pair)
        return list(by_signature.values())


# ----------------------------------------------------------------------
# Materialization: plan + seed captures -> runnable client statements.


@dataclass
class MaterializedTest:
    """A synthesized test bound to concrete heap objects in one VM."""

    test: SynthesizedTest
    vm: VM
    env: dict[str, Value]
    #: Both kinds of list are :class:`~repro.runtime.interp.ClientStmts`,
    #: so a template and its forks compile each one once.
    setup_stmts: list[ast.Stmt]
    thread_stmts: tuple[list[ast.Stmt], list[ast.Stmt]]

    def fork(self) -> "MaterializedTest":
        """A copy bound to a clone of this test's VM.

        Running the copy leaves this test's VM and environment
        untouched.  The statement lists are shared: they are read-only.
        """
        return MaterializedTest(
            test=self.test,
            vm=self.vm.clone(),
            env=dict(self.env),
            setup_stmts=self.setup_stmts,
            thread_stmts=self.thread_stmts,
        )

    def render(self) -> str:
        """Figure-3 style rendering of the synthesized test."""
        from repro.lang.pretty import pretty_stmt

        lines = [f"public void {self.test.name}() {{"]
        for name, value in self.env.items():
            if isinstance(value, ObjRef):
                lines.append(f"  // {name}: {value} (collected from seed run)")
        for stmt in self.setup_stmts:
            lines.extend(pretty_stmt(stmt, indent=1))
        for index, stmts in enumerate(self.thread_stmts, start=1):
            lines.append(f"  Thread t{index} = new Thread() {{")
            lines.append("    void run() {")
            for stmt in stmts:
                lines.extend(pretty_stmt(stmt, indent=3))
            lines.append("    }")
            lines.append("  };")
        lines.append("  t1.start(); t2.start();")
        lines.append("}")
        return "\n".join(lines)


def _collected_calls(plan: TestPlan) -> list[PlannedCall]:
    """The calls :class:`Materializer` collects, in collection order:
    the setters, then the two racy calls."""
    return [
        *plan.left.setter_calls,
        *plan.right.setter_calls,
        plan.left.racy_call,
        plan.right.racy_call,
    ]


def collection_key(test: SynthesizedTest) -> Key:
    """The ``(seed test, ordinal)`` of each call ``test`` collects."""
    return tuple(
        (call.summary.test_name, call.summary.ordinal)
        for call in _collected_calls(test.plan)
    )


class Materializer:
    """Binds a plan's slots to concrete objects (Algorithm 1, lines 1-5)."""

    def __init__(self, test: SynthesizedTest, vm: VM | SeedTrie) -> None:
        self._test = test
        self._seeds = vm
        self._env: dict[str, Value] = {}
        self._bound: dict[int, str] = {}
        self._next_node = SYNTH_NODE_BASE
        self._next_temp = 1

    def materialize(self) -> MaterializedTest:
        plan = self._test.plan
        calls = _collected_calls(plan)
        setters = calls[:-2]
        key = collection_key(self._test)
        if isinstance(self._seeds, SeedTrie):
            vm, captures = self._seeds.collect(key)
        else:
            vm = self._seeds
            collector = SeedCollector(vm)
            captures = tuple(collector.collect(*seed) for seed in key)
        # Algorithm 1 collects every invocation's receiver up front
        # (lines 1-4); only the arguments are re-arranged by
        # shareObjects.  Pre-binding receivers to their *own* captures
        # matters for crossed plans (deadlock tests), where a receiver
        # slot also appears as the other side's argument.
        for call, capture in zip(calls, captures):
            receiver = call.receiver
            if (
                receiver is not None
                and receiver.origin == "collected"
                and receiver.slot_id not in self._bound
            ):
                self._bind(receiver.slot_id, capture.receiver, "r")

        setup = ClientStmts(
            self._build_call_stmt(call, capture)
            for call, capture in zip(setters, captures)
        )
        left_stmts = ClientStmts(
            [self._build_call_stmt(plan.left.racy_call, captures[len(setters)])]
        )
        right_stmts = ClientStmts(
            [self._build_call_stmt(plan.right.racy_call, captures[len(setters) + 1])]
        )
        return MaterializedTest(
            test=self._test,
            vm=vm,
            env=self._env,
            setup_stmts=setup,
            thread_stmts=(left_stmts, right_stmts),
        )

    # ------------------------------------------------------------------

    def _node_id(self) -> int:
        self._next_node += 1
        return self._next_node

    def _fresh_name(self, hint: str) -> str:
        name = f"{hint}_{self._next_temp}"
        self._next_temp += 1
        return name

    def _build_call_stmt(self, call: PlannedCall, capture) -> ast.Stmt:
        args: list[ast.Expr] = []
        for index, spec in enumerate(call.args):
            if isinstance(spec, SeedArg):
                args.append(self._value_expr(capture.args[spec.index], "seed"))
            elif isinstance(spec, SlotArg):
                slot = spec.slot
                if slot.slot_id not in self._bound:
                    if slot.origin == "produced":
                        raise SynthesisError(
                            f"slot {slot} used before being produced in "
                            f"{self._test.name}"
                        )
                    self._bind(slot.slot_id, capture.arg_ref(index), "s")
                args.append(self._var(self._bound[slot.slot_id]))
            else:  # pragma: no cover - ArgSpec is closed
                raise SynthesisError(f"unknown arg spec {spec!r}")

        if call.is_constructor:
            new_expr = ast.New(class_name=call.class_name, args=args)
            new_expr.node_id = self._node_id()
            produced = call.produces
            name = self._fresh_name("n")
            if produced is not None:
                self._bound[produced.slot_id] = name
            stmt: ast.Stmt = ast.VarDecl(
                decl_type=None, name=name, init=new_expr
            )
            stmt.decl_type = _class_type_of(call.class_name)
            stmt.node_id = self._node_id()
            return stmt

        receiver_slot = call.receiver
        assert receiver_slot is not None
        if receiver_slot.slot_id not in self._bound:
            if receiver_slot.origin == "produced":
                raise SynthesisError(
                    f"receiver slot {receiver_slot} used before production"
                )
            self._bind(receiver_slot.slot_id, capture.receiver, "r")
        receiver_expr = self._var(self._bound[receiver_slot.slot_id])

        call_expr = ast.Call(target=receiver_expr, method=call.method, args=args)
        call_expr.node_id = self._node_id()
        if call.produces is not None:
            name = self._fresh_name("f")
            self._bound[call.produces.slot_id] = name
            stmt = ast.VarDecl(
                decl_type=_class_type_of(call.produces.class_name),
                name=name,
                init=call_expr,
            )
        else:
            stmt = ast.ExprStmt(expr=call_expr)
        stmt.node_id = self._node_id()
        return stmt

    def _bind(self, slot_id: int, value: ObjRef, hint: str) -> None:
        name = self._fresh_name(hint)
        self._env[name] = value
        self._bound[slot_id] = name

    def _var(self, name: str) -> ast.VarRef:
        ref = ast.VarRef(name=name)
        ref.node_id = self._node_id()
        return ref

    def _value_expr(self, value: Value, hint: str) -> ast.Expr:
        """Literal for primitives; environment variable for objects."""
        if isinstance(value, ObjRef):
            name = self._fresh_name(hint)
            self._env[name] = value
            return self._var(name)
        if value is None:
            expr: ast.Expr = ast.NullLit()
        elif isinstance(value, bool):
            expr = ast.BoolLit(value=value)
        else:
            expr = ast.IntLit(value=value)
        expr.node_id = self._node_id()
        return expr


def _class_type_of(name: str):
    from repro.lang.types import class_type

    return class_type(name)


def materialize(test: SynthesizedTest, vm: VM | SeedTrie) -> MaterializedTest:
    """Bind a synthesized test to concrete objects in ``vm``.

    Given a :class:`~repro.synth.collect.SeedTrie` instead of a VM, the
    seed calls are collected through the trie, and the test's VM is the
    trie's node for its whole collection sequence: run forks of it only.

    Raises:
        SynthesisError: when seed collection cannot supply the objects.
    """
    return Materializer(test, vm).materialize()
