#!/usr/bin/env python3
"""Evidence reports across the zoo.

The classifier combines entropy, bracketed free-set searches, and greedy
projection probes into three flags.  Verdicts are evidence at the
stated scale, never theorems: the report embeds every scale parameter.
"""

import warnings

from tamelab import ClassifyParams, SeqSource, classify, materialize
from tamelab.sources import concat_block_bounds

warnings.simplefilter("ignore")

end10 = concat_block_bounds(10)[-1][1]
RUNS = [
    ("golden coding", SeqSource.fibonacci(), (-50_000, 50_000), ClassifyParams()),
    ("half-line", SeqSource.char_halfline(), (-1000, 1000), ClassifyParams()),
    ("Thue-Morse", SeqSource.morse(), (-50_000, 50_000), ClassifyParams()),
    ("de Bruijn 16", SeqSource.de_bruijn(16), (-(1 << 16), 1 << 16),
     ClassifyParams(entropy_n_max=16, free_brackets=(4, 8, 12), free_max_size=12,
                    beam=512)),
    ("concatenation w1..w10", SeqSource.concat_nonnull(), (0, end10 + 1),
     ClassifyParams(entropy_n_max=48, free_brackets=(4, 8, 12, 16), free_max_size=12,
                    beam=1024)),
]

print(f"{'source':>22} | {'headline':>8} | {'max free':>8} | "
      f"{'pos.ent':>7} | {'nonnull':>7} | {'tame?':>5}")
print("-" * 75)
for name, source, window, params in RUNS:
    report = classify(materialize(source, window), params)
    max_free = max((s for _, s in report.max_free_by_bracket), default=0)
    print(f"{name:>22} | {report.entropy_headline:8.4f} | {max_free:>8} | "
          f"{str(report.positive_entropy_evidence):>7} | "
          f"{str(report.nonnull_evidence):>7} | {str(report.tame_consistent):>5}")

print("\nfull structured report for the half-line source:\n")
print(classify(materialize(SeqSource.char_halfline(), (-1000, 1000))).to_text())
