"""Statistical experiments: filter calibration and leakage measurement.

Both experiments are deterministic under a seed so their reports can be
reproduced and asserted in tests.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field

from . import aggregator as aggregator_module
from .harness import Federation
from .policy import PUBLIC_KEY
from .quads import COMPONENTS, Term, canonical_text, iri
from .summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    false_positive_rate,
    summary_add,
    summary_contains,
)


@dataclass(frozen=True)
class FprReport:
    """Measured vs analytic false-positive rate for one parameter point."""

    m: int
    h: int
    inserts: int
    probes: int
    seed: int | None
    positives: int
    measured: float
    expected: float
    relative_deviation: float
    elapsed_seconds: float

    def within(self, tolerance: float) -> bool:
        return self.relative_deviation <= tolerance


def fpr_experiment(
    m: int, h: int, inserts: int, probes: int, seed: int | None = None
) -> FprReport:
    """Monte Carlo estimate of the false-positive rate.

    Inserts ``inserts`` random elements under one key and source, then
    probes ``probes`` elements drawn from a disjoint namespace, so every
    positive probe is a false positive.
    """
    if m <= 0 or h <= 0 or inserts < 0 or probes <= 0:
        raise ValueError("m, h and probes must be positive; inserts non-negative")
    started = time.perf_counter()
    params = AmfParams(m=m, h=h)
    rng = random.Random(seed)
    key = rng.randbytes(32)
    source = "urn:exp:source"
    f = BloomFilter(params)
    for i in range(inserts):
        summary_add(f, iri(f"urn:exp:member:{i}:{rng.getrandbits(64):016x}"), key, source)
    positives = 0
    for i in range(probes):
        term = iri(f"urn:exp:probe:{i}:{rng.getrandbits(64):016x}")
        if summary_contains(f, term, key, source):
            positives += 1
    measured = positives / probes
    # each add inserts a concrete-source and a wildcard-source element
    expected = false_positive_rate(params, 2 * inserts)
    if expected > 0.0:
        deviation = abs(measured - expected) / expected
    else:
        deviation = 0.0 if positives == 0 else float("inf")
    return FprReport(
        m=m,
        h=h,
        inserts=inserts,
        probes=probes,
        seed=seed,
        positives=positives,
        measured=measured,
        expected=expected,
        relative_deviation=deviation,
        elapsed_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class TermLeak:
    """Wrong-key probe outcome for one restricted (component, term) pair."""

    component: str
    term: str
    probes: int
    positives: int
    rate: float
    bound: float
    control_positive: bool


@dataclass(frozen=True)
class LeakageReport:
    per_term: tuple[TermLeak, ...]
    total_probes: int
    total_positives: int
    overall_rate: float
    interface_opaque: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return (
            self.interface_opaque
            and all(t.rate <= t.bound for t in self.per_term)
            and all(t.control_positive for t in self.per_term)
        )


def restricted_terms(fed: Federation) -> list[tuple[str, Term, set[bytes]]]:
    """(component, term, permit keys) for terms summarized only under
    non-public keys among the aggregated sources."""
    sources = set(fed.aggregator.snapshot()[1])
    keys_per_term: dict[tuple[str, Term], set[bytes]] = {}
    for pod in fed.pods:
        for uri in pod.file_uris:
            if uri not in sources:
                continue
            key_map = pod.file(uri).key_map
            for quad in key_map.quads():
                permit_keys = key_map.permit_keys_for(quad)
                if not permit_keys:
                    continue
                for name in COMPONENTS:
                    slot = keys_per_term.setdefault((name, quad.component(name)), set())
                    slot.update(permit_keys)
    out = [
        (name, term, keys)
        for (name, term), keys in keys_per_term.items()
        if PUBLIC_KEY not in keys
    ]
    out.sort(key=lambda item: (item[0], canonical_text(item[1])))
    return out


_OPAQUE_FORBIDDEN = (
    "Quad",
    "QuadPattern",
    "AccessPolicy",
    "AccessKey",
    "PolicyKeyMap",
    "KeyRing",
    "KeyStore",
    "Identity",
)


def aggregator_interface_is_opaque() -> tuple[bool, list[str]]:
    """Check that the aggregator's public surface never trades in quads,
    policies, keys or identities, only in source URIs and summaries.

    Inspects the signatures of ``create_aggregated_summary``, of the
    summary's binary reader and writer and of every public Aggregator
    method, plus the aggregator module's import table.
    """
    problems: list[str] = []
    for name in dir(aggregator_module):
        if name.startswith("_"):
            continue
        obj = getattr(aggregator_module, name)
        if getattr(obj, "__module__", None) in ("podfed.policy", "podfed.pod"):
            problems.append(f"module imports {name} from an access-control module")
    callables = [
        aggregator_module.create_aggregated_summary,
        aggregator_module.Summary.to_bytes,
        aggregator_module.Summary.from_bytes,
    ]
    cls = aggregator_module.Aggregator
    callables += [
        member
        for name, member in inspect.getmembers(cls, callable)
        if not name.startswith("_")
    ]
    for fn in callables:
        try:
            signature = str(inspect.signature(fn))
        except (TypeError, ValueError):
            continue
        for forbidden in _OPAQUE_FORBIDDEN:
            if forbidden in signature:
                problems.append(f"{fn.__qualname__} signature mentions {forbidden}")
    return not problems, problems


def leakage_experiment(fed: Federation, probes: int = 25000, seed: int | None = None) -> LeakageReport:
    """Probe the combined summary for restricted terms with random wrong keys.

    Every restricted term also gets one control probe with a correct key,
    which must be positive. The pass bound per term is twice the analytic
    false-positive rate of the component filter at its current fill,
    estimated from its set bits.
    """
    if probes <= 0:
        raise ValueError("probes must be positive")
    rng = random.Random(seed)
    combined, _ = fed.aggregator.snapshot()
    real_keys = {
        key
        for pod in fed.pods
        for quad in pod.key_map.quads()
        for key in pod.key_map.permit_keys_for(quad)
    }
    per_term = []
    total_positives = 0
    for component, term, keys in restricted_terms(fed):
        f = combined.component(component)
        bound = 2.0 * f.estimated_fpr
        positives = 0
        for _ in range(probes):
            wrong = rng.randbytes(32)
            while wrong in real_keys:
                wrong = rng.randbytes(32)
            if summary_contains(f, term, wrong, ANY_SOURCE):
                positives += 1
        control = any(
            summary_contains(f, term, key, ANY_SOURCE) for key in keys
        )
        total_positives += positives
        per_term.append(
            TermLeak(
                component=component,
                term=canonical_text(term),
                probes=probes,
                positives=positives,
                rate=positives / probes,
                bound=bound,
                control_positive=control,
            )
        )
    opaque, problems = aggregator_interface_is_opaque()
    total = probes * len(per_term)
    return LeakageReport(
        per_term=tuple(per_term),
        total_probes=total,
        total_positives=total_positives,
        overall_rate=(total_positives / total) if total else 0.0,
        interface_opaque=opaque,
        notes=tuple(problems),
    )
