"""Bundled experiment configurations.

Each preset is a complete config; pick the analysis with the command,
e.g. ``tamelab freeset --preset debruijn16`` and
``tamelab entropy --preset debruijn16`` read the same preset.
"""

from .sources import concat_block_bounds, concat_slot_coordinates

_CONCAT12_END = concat_block_bounds(12)[-1][1]
_CONCAT12_SLOT = concat_slot_coordinates(12)[0]
_CONCAT10_END = concat_block_bounds(10)[-1][1]

PRESETS: dict[str, str] = {
    # golden-angle coding, one window of 64 symbols (golden-file source)
    "fib64": """
[source]
kind = sturmian
alphas = golden
cuts = 0,one_minus_golden
base = 0

[window]
box = 0:64
""",
    # golden-angle coding at desk horizon: complexity, free sets, classify
    "fib100k": """
[source]
kind = sturmian
alphas = golden
cuts = 0,one_minus_golden
base = 0

[window]
box = 0:100000

[complexity]
n_max = 30

[freeset]
pool = 0:999
max_size = 11

[classify]
entropy_n_max = 200

[family]
mode = orbit
shifts = 0:63
points = 0:9999
a = 0.25
b = 0.75
max_len = 6
""",
    # full-shift stand-in: binary de Bruijn word of order 16
    "debruijn16": """
[source]
kind = de_bruijn
order = 16

[window]
box = 0:131072

[entropy]
n_max = 16

[freeset]
pool = 0:15
max_size = 16

[classify]
entropy_n_max = 16
brackets = 4,8,12
max_size = 12
beam = 512
""",
    # indicator of sums of distinct powers of ten, two-sided window
    "ip10": """
[source]
kind = ip_indicator
base = 10
exponent_cap = 7

[window]
box = -1000000:1000000

[freeset]
set = 10,100,1000
""",
    # block concatenation through w12; the pool is the first length-12 slot
    "concat12": f"""
[source]
kind = concat_nonnull

[window]
box = 0:{_CONCAT12_END + 1}

[freeset]
pool = {_CONCAT12_SLOT}:{_CONCAT12_SLOT + 11}
max_size = 12

[seqentropy]
coords = {",".join(str(_CONCAT12_SLOT + i) for i in range(12))}

[complexity]
n_max = 48

[entropy]
n_max = 48
""",
    # block concatenation through w10 for the classifier
    "concat10": f"""
[source]
kind = concat_nonnull

[window]
box = 0:{_CONCAT10_END + 1}

[classify]
entropy_n_max = 48
brackets = 4,8,12,16
max_size = 12
beam = 1024
""",
    # indicator of the nonnegative half-line, two-sided window
    "halfline": """
[source]
kind = char_halfline

[window]
box = -1000:1000

[complexity]
n_max = 30

[classify]
entropy_n_max = 200
""",
    # randomized tiny-instance cross-check of the searcher against the
    # brute-force enumeration oracle
    "oracle": """
[source]
kind = random
seed = 20240913
alphabet = 2

[window]
box = 0:64

[freeset]
oracle_check = true
oracle_instances = 100
""",
    # coordinate projections on the binary cube, the classical independent family
    "cubefam": """
[source]
kind = de_bruijn
order = 3

[window]
box = 0:16

[family]
mode = cube
dim = 3
a = 0.25
b = 0.75
max_len = 3
""",
    # sphere coding on the 2-torus (experiment subject, not certified tame)
    "sphere2d": """
[source]
kind = sphere
alphas = golden,sqrt2_frac
center = 0.5,0.5
radius = 0.1
base = 0.5,0.5

[window]
box = 0:10000

[complexity]
n_max = 20

[classify]
entropy_n_max = 60
""",
}
