"""Unit tests for the lockset facts walker (repro.static.facts)."""

from repro.lang import ast, load
from repro.static.facts import analyze_program


def facts_for(source):
    return analyze_program(load(source))


def sites_by_field(facts, field_name, kind=None):
    return [
        f
        for f in facts.sites.values()
        if f.field_name == field_name and (kind is None or f.kind == kind)
    ]


class TestStableFields:
    def test_ctor_only_assignment_is_stable(self):
        facts = facts_for(
            """
            class Pad { int x; }
            class A {
              Pad lock;
              int data;
              A() { this.lock = new Pad(); }
              void bump() { this.data = this.data + 1; }
            }
            test T { A a = new A(); a.bump(); }
            """
        )
        assert "lock" in facts.stable_fields
        assert "data" not in facts.stable_fields

    def test_assignment_outside_ctor_poisons_the_name(self):
        facts = facts_for(
            """
            class Pad { int x; }
            class A {
              Pad lock;
              A() { this.lock = new Pad(); }
              void swap() { this.lock = new Pad(); }
            }
            test T { A a = new A(); a.swap(); }
            """
        )
        assert "lock" not in facts.stable_fields

    def test_leaking_ctor_poisons_its_fields(self):
        # The constructor passes `this` to another object: a second
        # thread could observe `lock` before it is assigned.
        facts = facts_for(
            """
            class Pad { int x; }
            class Sink { A held; Sink(A a) { this.held = a; } }
            class A {
              Pad lock;
              A() { Sink s = new Sink(this); this.lock = new Pad(); }
            }
            test T { A a = new A(); }
            """
        )
        assert "lock" not in facts.stable_fields

    def test_pseudo_fields_never_stable(self):
        facts = facts_for(
            """
            class A {
              IntArray buf;
              A() { this.buf = new IntArray(4); }
              int peek() { return this.buf.get(0); }
            }
            test T { A a = new A(); int x = a.peek(); }
            """
        )
        assert "elem" not in facts.stable_fields
        assert "length" not in facts.stable_fields


SYNC_SOURCE = """
class Pad { int x; }
class A {
  Pad lock;
  int guarded;
  int naked;
  A() { this.lock = new Pad(); }
  void put(int v) { synchronized (this.lock) { this.guarded = v; } }
  synchronized int sget() { return this.guarded; }
  void touch() { this.naked = 1; }
}
test T { A a = new A(); a.put(3); int x = a.sget(); a.touch(); }
"""


class TestLocksAndOwners:
    def test_sync_block_lock_path(self):
        facts = facts_for(SYNC_SOURCE)
        (write,) = sites_by_field(facts, "guarded", kind="W")
        assert write.owner == ("this",)
        assert write.must_locks == frozenset({("this", "lock")})
        assert write.rel_locks() == frozenset({("lock",)})

    def test_synchronized_method_holds_this(self):
        facts = facts_for(SYNC_SOURCE)
        (read,) = sites_by_field(facts, "guarded", kind="R")
        assert read.must_locks == frozenset({("this",)})
        # Relative to the owner `this`, the monitor is the empty suffix.
        assert read.rel_locks() == frozenset({()})

    def test_unguarded_site_has_no_locks(self):
        facts = facts_for(SYNC_SOURCE)
        (write,) = sites_by_field(facts, "naked", kind="W")
        assert write.must_locks == frozenset()
        assert write.rel_locks() == frozenset()

    def test_unstable_lock_field_is_not_a_usable_path(self):
        facts = facts_for(
            """
            class Pad { int x; }
            class A {
              Pad lock;
              int data;
              A() { this.lock = new Pad(); }
              void rekey() { this.lock = new Pad(); }
              void put(int v) { synchronized (this.lock) { this.data = v; } }
            }
            test T { A a = new A(); a.put(1); a.rekey(); }
            """
        )
        (write,) = sites_by_field(facts, "data", kind="W")
        assert write.must_locks == frozenset()

    def test_reassigned_local_root_is_unusable(self):
        facts = facts_for(
            """
            class A {
              int data;
              void churn(A other) {
                A t = other;
                t = new A();
                t.data = 1;
              }
            }
            test T { A a = new A(); a.churn(a); }
            """
        )
        (write,) = sites_by_field(facts, "data", kind="W")
        assert write.owner is None


class TestThreadLocal:
    def test_fresh_unescaping_local(self):
        facts = facts_for(
            """
            class Box { int v; }
            class A {
              int scratch() { Box b = new Box(); b.v = 7; return b.v; }
            }
            test T { A a = new A(); int x = a.scratch(); }
            """
        )
        for site in sites_by_field(facts, "v"):
            assert site.thread_local

    def test_returned_local_escapes(self):
        facts = facts_for(
            """
            class Box { int v; }
            class A {
              Box make() { Box b = new Box(); b.v = 7; return b; }
            }
            test T { A a = new A(); Box got = a.make(); }
            """
        )
        for site in sites_by_field(facts, "v"):
            assert not site.thread_local

    def test_field_stored_local_escapes(self):
        facts = facts_for(
            """
            class Box { int v; }
            class A {
              Box kept;
              void make() { Box b = new Box(); b.v = 7; this.kept = b; }
            }
            test T { A a = new A(); a.make(); }
            """
        )
        for site in sites_by_field(facts, "v"):
            assert not site.thread_local

    def test_leaking_class_never_thread_local(self):
        facts = facts_for(
            """
            class Reg { Box held; Reg() { this.held = null; } }
            class Box { int v; Reg reg; Box(Reg r) { r.held = this; this.reg = r; } }
            class A {
              Reg r;
              A() { this.r = new Reg(); }
              void make() { Box b = new Box(this.r); b.v = 7; }
            }
            test T { A a = new A(); a.make(); }
            """
        )
        # Box's constructor leaks `this` into the registry, so `b` is
        # reachable by other threads the moment it is constructed.
        for site in sites_by_field(facts, "v"):
            assert not site.thread_local


class TestNodeIdsMatchRuntime:
    def test_facts_cover_recorded_access_sites(self):
        # The ids the walker keys on must be the ids the VM stamps on
        # access events, else every site falls through as Unknown.
        from repro.runtime import VM
        from repro.trace import ColumnarRecorder

        table = load(SYNC_SOURCE)
        facts = analyze_program(table)
        vm = VM(table)
        recorder = ColumnarRecorder("T")
        vm.run_test("T", listeners=(recorder,))
        trace = recorder.packed
        field_sites = set()
        for event in trace:
            if getattr(event, "field_name", None) in (
                "guarded",
                "naked",
                "lock",
            ) and getattr(event, "node_id", -1) >= 0:
                field_sites.add((event.field_name, event.node_id))
        assert field_sites, "seed trace recorded no field accesses"
        method_node_ids = set(facts.sites)
        in_methods = {
            (f, n) for f, n in field_sites if n in method_node_ids
        }
        # Every library-method access site the runtime recorded has
        # facts; client-level (test body) sites legitimately fall
        # through as Unknown.
        for f, n in in_methods:
            assert facts.site(n).field_name == f


class TestSerialization:
    def test_static_facts_roundtrip(self):
        from repro.narada.serial import (
            decode_static_facts,
            encode_static_facts,
        )

        facts = facts_for(SYNC_SOURCE)
        data = encode_static_facts(facts)
        back = decode_static_facts(data)
        assert back.stable_fields == facts.stable_fields
        assert back.site_count == facts.site_count
        assert set(back.sites) == set(facts.sites)
        for node_id, site in facts.sites.items():
            assert back.sites[node_id] == site
        # Stable across a second encode (cacheable artifact).
        assert encode_static_facts(back) == data
