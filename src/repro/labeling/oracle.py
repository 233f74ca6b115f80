"""Labelers: simulated sources of match/no-match labels.

The paper's systems obtain labels from a single user (PyMatcher's labeler
GUI, CloudMatcher's web UI) or from Mechanical Turk crowd workers.  This
module simulates both against a known gold standard:

* :class:`OracleLabeler` — a perfect or noisy single user, with a
  labeling-time model (so benchmarks can report Table 2's "User time");
* :class:`UncertainOracleLabeler` — a user who is *uncertain* on hard
  pairs (the AmFam "Vehicles" story: the expert mislabels systematically
  when the data is too incomplete to decide).

All labelers count their questions; Table 2's "Questions" column is read
off these counters.
"""

from __future__ import annotations

import random
from typing import Any

Pair = tuple[Any, Any]

MATCH = 1
NO_MATCH = 0


class BaseLabeler:
    """Counts questions and accumulates simulated labeling time."""

    def __init__(self, seconds_per_label: float = 6.0):
        self.seconds_per_label = seconds_per_label
        self.questions_asked = 0

    @property
    def labeling_seconds(self) -> float:
        """Total simulated human labeling time."""
        return self.questions_asked * self.seconds_per_label

    def label(self, pair: Pair) -> int:
        raise NotImplementedError


class OracleLabeler(BaseLabeler):
    """Labels against a gold pair set, optionally with uniform noise.

    ``noise_rate`` is the probability a label is flipped — a lay user who
    occasionally misclicks.
    """

    def __init__(
        self,
        gold_pairs: set[Pair],
        noise_rate: float = 0.0,
        seconds_per_label: float = 6.0,
        seed: int | None = None,
    ):
        super().__init__(seconds_per_label)
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError(f"noise_rate must be in [0, 1], got {noise_rate}")
        self.gold_pairs = set(gold_pairs)
        self.noise_rate = noise_rate
        self._rng = random.Random(seed)

    def true_label(self, pair: Pair) -> int:
        return MATCH if tuple(pair) in self.gold_pairs else NO_MATCH

    def label(self, pair: Pair) -> int:
        """Answer one match/no-match question."""
        self.questions_asked += 1
        answer = self.true_label(pair)
        if self.noise_rate and self._rng.random() < self.noise_rate:
            answer = 1 - answer
        return answer


class UncertainOracleLabeler(OracleLabeler):
    """An expert who cannot decide on a designated set of hard pairs.

    On a hard pair the labeler answers randomly with bias
    ``hard_match_bias`` toward "match" — modelling the AmFam vehicles
    expert facing data "so incomplete that even he was uncertain in many
    cases".
    """

    def __init__(
        self,
        gold_pairs: set[Pair],
        hard_pairs: set[Pair],
        hard_match_bias: float = 0.5,
        seconds_per_label: float = 6.0,
        seed: int | None = None,
    ):
        super().__init__(gold_pairs, noise_rate=0.0, seconds_per_label=seconds_per_label, seed=seed)
        self.hard_pairs = set(hard_pairs)
        self.hard_match_bias = hard_match_bias

    def label(self, pair: Pair) -> int:
        self.questions_asked += 1
        if tuple(pair) in self.hard_pairs:
            return MATCH if self._rng.random() < self.hard_match_bias else NO_MATCH
        return self.true_label(pair)
