"""Word corpora for the three benchmark workloads.

Random words are drawn letter by letter, uniformly over
``sorted(standard_generators(g))`` with a uniform sign, as in ROADMAP.md,
from a stream seeded with the workload's name.  The corpus is the first
``ceil(rate * seconds)`` words of that stream, so it is the same on every
run of a given length, and ``--seed`` shuffles their order.

Why the words are not drawn afresh from ``--seed``: per-word cost spans four
decades (0.5 ms to 5 s) and a few words carry most of the time.  A 100-word
corpus drawn afresh from each seed moved ``words_per_s`` by 26% (long) and
44% (wide) interquartile over seeds, by bootstrap from measured per-word
times, which is more than any bound a regression gate can use.  On
draw-short, 2 of about 11,000 fresh words looped to the iteration cap, and
each took a fifth of a pass.

NOTES.md says why each workload exists and which layers it should stress.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from traintrack import standard_generators

from conftest import REFERENCE_WORDS


@dataclass(frozen=True)
class Word:
    """One CLI input: a label for reports, the genus and the signed letters."""
    label: str
    genus: int
    letters: tuple

    @property
    def text(self):
        """The word in CLI syntax, e.g. ``-a1 d1 -c0 d0``."""
        return " ".join(("-" if sign < 0 else "") + name
                        for name, sign in self.letters)


REFERENCES = tuple(Word(label, genus, tuple(letters))
                   for label, (genus, letters) in REFERENCE_WORDS.items())

# A genus-2 word from the draw-short distribution that runs into the
# 10000-round cap (exit 3; 4.5 s when this benchmark was written).  Pinned,
# so the defect costs every draw-short run the same, not only the seeds
# that happen to draw such a word.
ITERATION_CAP = Word("cap1", 2, (("a0", -1), ("a1", -1), ("c0", -1),
                                 ("d1", -1), ("d0", -1)))


@dataclass(frozen=True)
class Workload:
    """How a workload draws its words and how the CLI is invoked on them."""
    name: str
    genera: tuple       # inclusive genus range
    lengths: tuple      # inclusive word-length range
    rate: float         # random words per second of --seconds
    svg: bool           # pass --svg, so hyplayout runs
    pinned: tuple = ()  # words run ahead of the random ones


# Rates are set so that a whole run, set-up timing and calibration
# included, takes about --seconds on the reference host, when calm, at the
# commit that added this benchmark (NOTES.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("draw-short", (2, 2), (1, 8), 12, True,
                 REFERENCES + (ITERATION_CAP,)),
        Workload("classify-long", (2, 3), (16, 24), 2.5, False),
        Workload("classify-wide", (4, 5), (10, 16), 2.2, False),
    )
}


def random_word(rng, label, genus, length):
    names = sorted(standard_generators(genus))
    return Word(label, genus, tuple((rng.choice(names), rng.choice((1, -1)))
                                    for _ in range(length)))


def words(workload, seed, seconds):
    """The corpus of a run; equal arguments give equal lists."""
    draw = random.Random(workload.name)
    drawn = [random_word(draw, f"w{i}", draw.randint(*workload.genera),
                         draw.randint(*workload.lengths))
             for i in range(math.ceil(workload.rate * seconds))]
    random.Random(seed).shuffle(drawn)
    return list(workload.pinned) + drawn
