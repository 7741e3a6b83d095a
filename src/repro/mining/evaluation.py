"""Evaluation utilities for mining experiments.

Planted-pattern workloads come with ground truth; these helpers turn
per-anchor predictions into the precision/recall/F1 numbers the
benchmark experiments report, and build labelled workloads in one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from ..constraints.structure import ComplexEventType
from ..granularity.registry import GranularitySystem
from .events import EventSequence


@dataclass(frozen=True)
class Evaluation:
    """Binary-classification counts with the usual derived metrics."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def accuracy(self) -> float:
        total = (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )
        correct = self.true_positives + self.true_negatives
        return correct / total if total else 1.0

    def __str__(self) -> str:
        return "P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d tn=%d)" % (
            self.precision,
            self.recall,
            self.f1,
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.true_negatives,
        )


def frontier_frequencies(
    hit_counts: Iterable[int], total_roots: int
) -> Tuple[float, ...]:
    """Per-candidate frequencies from batched hit counters.

    The scan engine counts hits per candidate while sharing one
    traversal across the whole frontier; the split back to
    per-candidate support is exact - each counter is incremented only
    for its own candidate's accepting runs - so the frequency is the
    paper's ``hits / total_roots``, with the empty-sequence convention
    of 0.0 when there are no reference occurrences.
    """
    if total_roots <= 0:
        return tuple(0.0 for _ in hit_counts)
    return tuple(hits / total_roots for hits in hit_counts)


def evaluate_anchors(
    truth: Mapping[int, bool],
    predict: Callable[[int], bool],
) -> Evaluation:
    """Score a per-anchor predictor against ground-truth labels.

    ``truth`` maps anchor identifiers (e.g. timestamps or indices) to
    whether a genuine occurrence anchors there; ``predict`` is called
    with each identifier.
    """
    tp = fp = fn = tn = 0
    for anchor, expected in truth.items():
        predicted = predict(anchor)
        if predicted and expected:
            tp += 1
        elif predicted:
            fp += 1
        elif expected:
            fn += 1
        else:
            tn += 1
    return Evaluation(tp, fp, fn, tn)


def labelled_planted_workload(
    complex_event_type: ComplexEventType,
    system: GranularitySystem,
    n_roots: int,
    confidence: float,
    seed: int,
    noise_types: Iterable[str] = (),
    noise_events_per_root: int = 5,
    root_spacing_seconds: int = 30 * 86400,
) -> Tuple[EventSequence, Dict[int, bool]]:
    """A planted workload plus per-anchor ground truth.

    Returns the sequence and ``{root timestamp: anchors a planted
    occurrence}``.  Ground truth is recovered with the exact reference
    matcher (so "planted" means *actually realised*, even if the
    generator's sampling placed extra coincidental matches - those are
    labelled True as well, which is the honest labelling for
    evaluating matchers).
    """
    from ..automata.structmatch import occurs_at
    from .generator import planted_sequence

    rng = random.Random(seed)
    sequence, _ = planted_sequence(
        complex_event_type,
        system,
        n_roots=n_roots,
        confidence=confidence,
        rng=rng,
        noise_types=list(noise_types),
        noise_events_per_root=noise_events_per_root,
        root_spacing_seconds=root_spacing_seconds,
    )
    root_type = complex_event_type.event_type(
        complex_event_type.structure.root
    )
    truth = {
        sequence[index].time: occurs_at(complex_event_type, sequence, index)
        for index in sequence.occurrence_indices(root_type)
    }
    return sequence, truth
