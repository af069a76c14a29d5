"""Seeded, deterministic composition of templates into subjects.

Determinism contract:

* subject ``i`` of seed ``s`` depends only on ``(s, i)`` and the
  template pool — its per-subject RNG is seeded from
  ``sha256(s, i)``, so changing ``--count`` never perturbs earlier
  subjects, and generation order (or parallel scoring order) cannot
  matter;
* the canonical source is the pretty-printed program under a
  provenance header, a ``/* ... */`` comment.  Cache keys hash the
  source text (:func:`repro.narada.cache.source_digest`), header
  included, so generated subjects are content-addressed exactly like
  the hand-ported ones, and two seeds producing an identical class
  under different headers share no pipeline artifact.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.corpus.oracle import OracleVerdict, derive_races
from repro.corpus.templates import SHARED_HELPERS, TEMPLATES, template_names
from repro.lang.build import new, program, test_decl, vdecl
from repro.lang.build import class_decl as build_class
from repro.lang.build import constructor as build_ctor
from repro.lang.pretty import pretty_program

#: Templates composed into one subject: each subject draws a width in
#: ``[MIN_TEMPLATES, MAX_TEMPLATES]`` from its own RNG.
MIN_TEMPLATES = 2
MAX_TEMPLATES = 4


@dataclass(frozen=True)
class CorpusConfig:
    """Everything subject generation depends on (and nothing else)."""

    seed: int = 0
    count: int = 200
    templates: tuple[str, ...] = template_names()
    key_prefix: str = "G"

    def validate(self) -> "CorpusConfig":
        unknown = [t for t in self.templates if t not in TEMPLATES]
        if unknown:
            raise ValueError(
                f"unknown template(s) {unknown}; known: {list(TEMPLATES)}"
            )
        if not self.templates:
            raise ValueError("template pool is empty")
        return self


@dataclass(frozen=True)
class GeneratedSubject:
    """One generated subject: canonical source plus its ground truth."""

    key: str
    class_name: str
    source: str
    verdict: OracleVerdict

    @property
    def template_keys(self) -> tuple[str, ...]:
        return self.verdict.template_keys


def subject_rng(seed: int, index: int) -> random.Random:
    """Per-subject RNG keyed by (corpus seed, subject index) only."""
    digest = hashlib.sha256(f"repro-corpus/{seed}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def compose_subject(
    template_keys: list[str] | tuple[str, ...],
    class_name: str,
    key: str,
    rng: random.Random | None = None,
    header: str | None = None,
) -> GeneratedSubject:
    """Build one subject from an explicit template composition.

    The deterministic core shared by seeded generation and by tests
    that need a *specific* composition (the oracle-soundness suite
    instantiates each template in isolation through this).
    """
    rng = rng if rng is not None else random.Random(0)
    instances = [TEMPLATES[t](n, rng) for n, t in enumerate(template_keys)]

    shared = [
        name
        for name in SHARED_HELPERS
        if any(name in inst.shared_helpers for inst in instances)
    ]
    helper_classes = [SHARED_HELPERS[name]() for name in shared]
    for inst in instances:
        helper_classes.extend(inst.helper_classes)

    ctor_stmts = [s for inst in instances for s in inst.ctor_stmts]
    main = build_class(
        class_name,
        fields=[f for inst in instances for f in inst.fields],
        methods=[build_ctor(class_name, [], ctor_stmts)]
        + [m for inst in instances for m in inst.methods],
    )
    seed_stmts = [vdecl(class_name, "o", new(class_name))] + [
        s for inst in instances for s in inst.seed_stmts
    ]
    built = program(
        classes=helper_classes + [main],
        tests=[test_decl("Seed", seed_stmts)],
    )

    specs = [a for inst in instances for a in inst.accesses]
    verdict = OracleVerdict(
        class_name=class_name,
        races=derive_races(specs),
        deadlock_potential=any(inst.deadlock_potential for inst in instances),
        template_keys=tuple(template_keys),
    )
    source = pretty_program(built)
    if header:
        source = f"/* {header} */\n\n{source}"
    return GeneratedSubject(
        key=key, class_name=class_name, source=source, verdict=verdict
    )


def generate_subject(
    config: CorpusConfig, index: int
) -> GeneratedSubject:
    """Subject ``index`` of the configured corpus."""
    config.validate()
    rng = subject_rng(config.seed, index)
    width = rng.randint(MIN_TEMPLATES, MAX_TEMPLATES)
    chosen = [rng.choice(config.templates) for _ in range(width)]
    class_name = f"Gen{index:03d}"
    return compose_subject(
        chosen,
        class_name=class_name,
        key=f"{config.key_prefix}{index:03d}",
        rng=rng,
        header=(
            f"corpus subject: seed={config.seed} index={index} "
            f"templates={','.join(chosen)}"
        ),
    )


def generate_corpus(config: CorpusConfig) -> list[GeneratedSubject]:
    """All ``config.count`` subjects, in index order."""
    config.validate()
    return [generate_subject(config, i) for i in range(config.count)]


def register_corpus(config: CorpusConfig):
    """Generate the corpus and register it with :mod:`repro.subjects`.

    Returns the registered :class:`SubjectInfo` list.  Registration is
    idempotent — re-registering the identical corpus is a no-op, while a
    key collision with *different* content (two corpora sharing a
    ``key_prefix``) still fails loudly.
    """
    from repro.subjects import PaperNumbers, SubjectInfo, register

    infos = []
    for subject in generate_corpus(config):
        verdict = subject.verdict
        info = SubjectInfo(
            key=subject.key,
            benchmark="generated",
            version=f"seed{config.seed}",
            class_name=subject.class_name,
            description=(
                "generated corpus subject "
                f"({', '.join(subject.template_keys)})"
            ),
            source=subject.source,
            # The oracle is this subject's "paper numbers": the ground
            # truth the harness scores against.
            paper=PaperNumbers(
                methods=len(subject.template_keys) * 2,
                loc=len(subject.source.splitlines()),
                race_pairs=len(verdict.races),
                tests=1,
                time_seconds=0.0,
                races_detected=len(verdict.races),
                harmful=verdict.harmful_count(),
                benign=verdict.benign_count(),
            ),
        )
        infos.append(register(info))
    return infos
