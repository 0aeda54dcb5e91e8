"""Pinned known-good values for the golden regression tests.

Every table here was verified against an independently written reference
implementation before being frozen; the suite treats these as exact
expectations (no tolerances except where a comment says otherwise).
"""

# For each p in [3, 199]: the first split prime l = 1 (mod 2p) and the
# exponent set E_l(p).  Exponent sets are stored sorted ascending and
# compared as sets (the twist and primitive-root choices do not affect
# membership).
FIRST_SPLIT = {
    3: (7, frozenset()),
    5: (11, frozenset()),
    7: (29, frozenset()),
    11: (23, frozenset({2})),
    13: (53, frozenset()),
    17: (103, frozenset()),
    19: (191, frozenset()),
    23: (47, frozenset()),
    29: (59, frozenset({2})),
    31: (311, frozenset()),
    37: (149, frozenset()),
    41: (83, frozenset()),
    43: (173, frozenset({26})),
    47: (283, frozenset()),
    53: (107, frozenset({34, 10})),
    59: (709, frozenset()),
    61: (367, frozenset()),
    67: (269, frozenset()),
    71: (569, frozenset()),
    73: (293, frozenset()),
    79: (317, frozenset()),
    83: (167, frozenset()),
    89: (179, frozenset()),
    97: (389, frozenset({26})),
    101: (607, frozenset({10})),
    103: (619, frozenset()),
    107: (643, frozenset()),
    109: (1091, frozenset({14, 86})),
    113: (227, frozenset()),
    127: (509, frozenset()),
    131: (263, frozenset({16})),
    137: (823, frozenset({78})),
    139: (557, frozenset()),
    149: (1193, frozenset()),
    151: (907, frozenset()),
    157: (1571, frozenset({94})),
    163: (653, frozenset({42})),
    167: (2339, frozenset({122})),
    173: (347, frozenset()),
    179: (359, frozenset({138})),
    181: (1087, frozenset({114, 164})),
    191: (383, frozenset()),
    193: (773, frozenset({108, 172})),
    197: (3547, frozenset({62})),
    199: (797, frozenset()),
}

# Minimal l with E_l(p) empty, as (l, N) where N is the 1-based index of l
# among the split primes of p.  First the p < 400 cases with N > 1, then the
# complete block 409 <= p <= 683.
MINIMAL_L = {
    11: (67, 2),
    29: (233, 2),
    43: (431, 2),
    53: (743, 2),
    97: (971, 2),
    101: (809, 2),
    109: (2399, 2),
    131: (1049, 3),
    137: (1097, 2),
    157: (7537, 5),
    163: (5869, 3),
    167: (7349, 3),
    179: (1433, 2),
    181: (1811, 2),
    193: (1931, 2),
    197: (4729, 2),
    211: (10973, 4),
    223: (6691, 2),
    227: (5903, 2),
    229: (5039, 2),
    233: (1399, 2),
    251: (4519, 2),
    277: (4987, 3),
    337: (6067, 3),
    349: (8377, 2),
    367: (3671, 2),
    383: (16087, 4),
    389: (14783, 2),
    397: (6353, 2),
    401: (10427, 4),
    409: (4091, 2),
    419: (839, 1),
    421: (4211, 1),
    431: (863, 1),
    433: (5197, 2),
    439: (4391, 1),
    443: (887, 1),
    449: (3593, 1),
    457: (21023, 3),
    461: (9221, 2),
    463: (5557, 1),
    467: (2803, 1),
    479: (3833, 1),
    487: (1949, 1),
    491: (983, 1),
    499: (1997, 1),
    503: (3019, 1),
    509: (4073, 2),
    521: (16673, 1),
    523: (6277, 2),
    541: (9739, 1),
    547: (5471, 1),
    557: (24509, 3),
    563: (7883, 1),
    569: (6829, 1),
    571: (5711, 1),
    577: (3463, 2),
    587: (8219, 1),
    593: (1187, 1),
    599: (4793, 1),
    601: (25243, 5),
    607: (20639, 3),
    613: (6131, 1),
    617: (30851, 3),
    619: (17333, 3),
    631: (6311, 1),
    641: (1283, 1),
    643: (10289, 2),
    647: (9059, 1),
    653: (1307, 1),
    659: (1319, 1),
    661: (14543, 3),
    673: (2693, 1),
    677: (5417, 1),
    683: (4099, 2),
}

# E_l(37) for the low scan range: the first 24 split primes of 37.
SCAN37_LOW = {
    149: frozenset(),
    223: frozenset(),
    593: frozenset(),
    1259: frozenset(),
    1481: frozenset({30}),
    1777: frozenset(),
    1999: frozenset(),
    2221: frozenset(),
    2591: frozenset({34}),
    2887: frozenset(),
    3109: frozenset(),
    3257: frozenset(),
    3331: frozenset({22}),
    3701: frozenset(),
    3923: frozenset(),
    4219: frozenset({18, 16}),
    4441: frozenset(),
    4663: frozenset(),
    5107: frozenset(),
    5477: frozenset(),
    6143: frozenset({28}),
    6217: frozenset(),
    6661: frozenset(),
    6883: frozenset(),
}

# E_l(37) for the sampled high range 742073..800089 (consecutive split
# primes of 37 in that window).
SCAN37_HIGH = {
    742073: frozenset({12}),
    742369: frozenset(),
    742591: frozenset(),
    743849: frozenset(),
    743923: frozenset({16}),
    744071: frozenset(),
    744811: frozenset(),
    744959: frozenset({10}),
    745033: frozenset({16}),
    745181: frozenset(),
    745477: frozenset(),
    745699: frozenset(),
    746069: frozenset(),
    746957: frozenset(),
    747401: frozenset(),
    747919: frozenset(),
    748807: frozenset({22}),
    749843: frozenset({34}),
    750287: frozenset(),
    750509: frozenset({14, 22}),
    751027: frozenset(),
    751841: frozenset({14, 16, 24}),
    752137: frozenset({8}),
    752359: frozenset({18}),
    752581: frozenset({16}),
    752803: frozenset({22, 32}),
    753617: frozenset(),
    753691: frozenset({16}),
    753839: frozenset({4, 22}),
    754283: frozenset(),
    755171: frozenset(),
    755393: frozenset({22}),
    756281: frozenset({2}),
    756799: frozenset({18}),
    757243: frozenset(),
    757909: frozenset({16}),
    758279: frozenset(),
    758501: frozenset({18}),
    759019: frozenset(),
    759167: frozenset({12}),
    759463: frozenset(),
    759833: frozenset({4}),
    760129: frozenset(),
    760499: frozenset(),
    762053: frozenset(),
    762571: frozenset(),
    763237: frozenset(),
    764051: frozenset(),
    764273: frozenset(),
    764717: frozenset({2}),
    765383: frozenset(),
    765827: frozenset({34}),
    766049: frozenset({22}),
    766937: frozenset({34}),
    767381: frozenset({18}),
    767603: frozenset({34}),
    767677: frozenset(),
    768343: frozenset({18}),
    768491: frozenset(),
    768787: frozenset({20}),
    769231: frozenset({24}),
    769453: frozenset({30}),
    772339: frozenset(),
    773153: frozenset({14}),
    774337: frozenset({28}),
    774929: frozenset({18}),
    775669: frozenset({18}),
    776483: frozenset(),
    776557: frozenset({20}),
    777001: frozenset({18, 28}),
    778111: frozenset(),
    778333: frozenset({28}),
    778777: frozenset(),
    779221: frozenset(),
    779591: frozenset(),
    779887: frozenset({18}),
    780257: frozenset({8}),
    780553: frozenset(),
    781367: frozenset({34}),
    781589: frozenset({32}),
    782107: frozenset(),
    782329: frozenset({18}),
    782921: frozenset({20}),
    783143: frozenset(),
    783661: frozenset(),
    784327: frozenset(),
    784697: frozenset(),
    784919: frozenset(),
    785363: frozenset(),
    786251: frozenset(),
    786547: frozenset(),
    787139: frozenset({20}),
    787361: frozenset(),
    787879: frozenset({10, 18, 20}),
    788027: frozenset({34}),
    789137: frozenset({24}),
    790099: frozenset(),
    791209: frozenset(),
    791431: frozenset(),
    791801: frozenset(),
    792023: frozenset({32}),
    792689: frozenset(),
    793207: frozenset(),
    795427: frozenset(),
    795649: frozenset({2, 32}),
    795797: frozenset(),
    795871: frozenset(),
    796759: frozenset(),
    796981: frozenset(),
    797647: frozenset(),
    797869: frozenset(),
    798461: frozenset(),
    798757: frozenset(),
    800089: frozenset({20}),
}

# High-range rows whose exponent set contains the irregular exponent 32.
SCAN37_IRREGULAR_HITS = frozenset({781589, 792023, 795649})

# All split primes l <= 100049 with E_l(37) nonempty, with their sets.
NONEMPTY37 = {
    1481: frozenset({30}),
    2591: frozenset({34}),
    3331: frozenset({22}),
    4219: frozenset({16, 18}),
    6143: frozenset({28}),
    7993: frozenset({16, 20}),
    8363: frozenset({8}),
    9769: frozenset({20}),
    10657: frozenset({4, 18, 26}),
    12433: frozenset({20}),
    13099: frozenset({28}),
    14431: frozenset({4, 14, 22}),
    17021: frozenset({6}),
    17909: frozenset({30}),
    18131: frozenset({22}),
    19463: frozenset({6}),
    20129: frozenset({6}),
    21017: frozenset({2, 4}),
    21313: frozenset({18}),
    21757: frozenset({8}),
    22349: frozenset({8}),
    23459: frozenset({6}),
    23977: frozenset({26}),
    25087: frozenset({26}),
    25457: frozenset({30}),
    29009: frozenset({8, 24}),
    30859: frozenset({2}),
    32783: frozenset({32}),
    33301: frozenset({30}),
    33967: frozenset({26}),
    36187: frozenset({8}),
    37889: frozenset({16}),
    38629: frozenset({22}),
    40627: frozenset({30}),
    40849: frozenset({6}),
    42773: frozenset({4}),
    45289: frozenset({8}),
    45659: frozenset({26}),
    48619: frozenset({8}),
    48989: frozenset({20}),
    51283: frozenset({14, 16}),
    51431: frozenset({20}),
    53281: frozenset({16}),
    55057: frozenset({20}),
    56167: frozenset({10, 14, 26}),
    57203: frozenset({34}),
    58313: frozenset({28}),
    58757: frozenset({16, 18}),
    58831: frozenset({24, 30}),
    59497: frozenset({28}),
    61051: frozenset({10}),
    62383: frozenset({2}),
    62753: frozenset({2}),
    63493: frozenset({2}),
    64381: frozenset({6, 32}),
    66749: frozenset({30}),
    67489: frozenset({30, 32}),
    67933: frozenset({6}),
    68821: frozenset({32}),
    69931: frozenset({12}),
    71411: frozenset({4}),
    72817: frozenset({28}),
    74149: frozenset({2}),
    75407: frozenset({10}),
    75629: frozenset({12, 20}),
    76961: frozenset({14}),
    78737: frozenset({28}),
    79181: frozenset({10}),
    80513: frozenset({16, 26}),
    81031: frozenset({18, 34}),
    82067: frozenset({34}),
    83621: frozenset({34}),
    83843: frozenset({2}),
    84731: frozenset({6}),
    85027: frozenset({26}),
    86729: frozenset({22}),
    86951: frozenset({8}),
    87691: frozenset({24}),
    91243: frozenset({22, 34}),
    91909: frozenset({30}),
    94351: frozenset({10}),
    94573: frozenset({18}),
    95239: frozenset({18, 28}),
    96497: frozenset({10}),
    98347: frozenset({28}),
    98939: frozenset({30}),
    99679: frozenset({10, 22}),
    100049: frozenset({14}),
}
NONEMPTY37_BOUND = 100049

# Split primes of 37 with 32 in the exponent set, up to 1040959.
IRREGULAR_HITS37 = {
    32783: frozenset({32}),
    64381: frozenset({6, 32}),
    67489: frozenset({30, 32}),
    68821: frozenset({32}),
    108929: frozenset({32}),
    132313: frozenset({32}),
    325379: frozenset({10, 32}),
    332039: frozenset({6, 10, 14, 32}),
    351797: frozenset({32}),
    364451: frozenset({28, 32}),
    387169: frozenset({32}),
    396937: frozenset({32}),
    960151: frozenset({32}),
    973397: frozenset({32}),
    983239: frozenset({32}),
    1000777: frozenset({32}),
    1002109: frozenset({2, 32}),
    1040959: frozenset({20, 32}),
}

# Density scan for p=37, counts indexed by n/2 for n = 2..34.  Each entry:
# Nel (split primes processed), Npp (running total of exponents found),
# last l processed, count vector.
DENSITY37_CHECKPOINTS = [
    (3015, 1427, 1414067,
     [83, 95, 84, 91, 80, 80, 86, 83, 92, 83, 97, 76, 83, 78, 86, 74, 76]),
    (3027, 1428, 1419839,
     [83, 95, 84, 91, 80, 80, 86, 83, 92, 83, 98, 76, 83, 78, 86, 74, 76]),
    (3030, 1429, 1420949,
     [83, 95, 84, 91, 80, 80, 86, 83, 92, 83, 98, 76, 83, 78, 86, 75, 76]),
    (3032, 1430, 1421911,
     [83, 95, 85, 91, 80, 80, 86, 83, 92, 83, 98, 76, 83, 78, 86, 75, 76]),
    (3033, 1431, 1422133,
     [83, 95, 86, 91, 80, 80, 86, 83, 92, 83, 98, 76, 83, 78, 86, 75, 76]),
    (3042, 1432, 1428127,
     [83, 96, 86, 91, 80, 80, 86, 83, 92, 83, 98, 76, 83, 78, 86, 75, 76]),
]
DENSITY37_FINAL = (
    3900, 1824, 1869389,
    [106, 114, 108, 114, 100, 112, 115, 101, 117, 113, 116, 93, 104, 97,
     108, 103, 103],
)

# Density scan for p=157 (counts indexed by n/2 for n = 2..154).  The
# n/2 = 58 slot stays zero until the 602nd split prime, 1185979.
DENSITY157_CHECKPOINTS = [
    (590, 311, 1161487,
     [9, 3, 2, 6, 8, 3, 1, 4, 5, 10, 3, 1, 3, 1, 6, 3, 4, 4, 2, 2, 1, 2, 5,
      5, 3, 2, 2, 1, 5, 7, 6, 2, 2, 1, 5, 5, 5, 4, 4, 3, 3, 4, 5, 4, 5, 6,
      5, 5, 5, 3, 6, 1, 6, 3, 5, 4, 5, 0, 2, 3, 5, 7, 3, 3, 3, 2, 4, 5, 7,
      6, 6, 5, 6, 1, 7, 4, 7]),
    (602, 320, 1185979,
     [9, 3, 2, 6, 8, 3, 2, 4, 6, 10, 3, 1, 3, 1, 6, 4, 4, 4, 2, 2, 1, 2, 5,
      5, 3, 2, 2, 1, 5, 7, 6, 3, 2, 1, 5, 5, 5, 4, 4, 3, 3, 4, 5, 4, 5, 6,
      5, 5, 5, 3, 6, 1, 6, 4, 5, 4, 6, 1, 2, 4, 5, 7, 3, 3, 3, 3, 4, 5, 7,
      6, 6, 5, 6, 1, 7, 4, 7]),
]

# The classification line of each flag in the symbol tables below.
SYMBOL_LINES = {
    "local_at_p": "Sn local pth power at P",
    "local_at_L": "Sn local pth power at L",
    "non_local_at_L": "Sn NON local pth power at L",
    "global_pth_power": "Sn GLOBAL pth power",
}

# Power residue symbol rows for p=37, n=32: l -> (v, u, flags), where flags
# collects the classification lines that must be emitted.
SYMBOL37 = {
    149: (259, 102, ("non_local_at_L",)),
    223: (259, 132, ("non_local_at_L",)),
    6883: (259, 6850, ("non_local_at_L",)),
    7253: (259, 4947, ("non_local_at_L",)),
    32783: (259, 1, ("local_at_p", "local_at_L", "global_pth_power")),
}

# Every row of `symbol --p 157 --n 60 --l-max 20000` (c=5), recorded with
# the exact route, in the shape of SYMBOL37.
SYMBOL157_N60 = {
    1571: (22169, 80, ("non_local_at_L",)),
    3769: (22169, 496, ("local_at_p", "non_local_at_L")),
    4397: (22169, 634, ("non_local_at_L",)),
    5653: (22169, 2430, ("non_local_at_L",)),
    7537: (22169, 6808, ("non_local_at_L",)),
    9421: (22169, 9378, ("non_local_at_L",)),
    11933: (22169, 7798, ("non_local_at_L",)),
    14759: (22169, 6805, ("non_local_at_L",)),
    15073: (22169, 589, ("non_local_at_L",)),
    19469: (22169, 5999, ("non_local_at_L",)),
}

# `symbol --p P --n N --l L` rows at large p, recorded while s still came
# from S_n mod p**K for every n: (p, l, n) -> (v, u, flags), with s = 0.
SYMBOL_LARGE_P = {
    (997, 3989, 2): (923079, 1797, ("non_local_at_L",)),
    (1999, 19991, 2): (1109889, 12802, ("non_local_at_L",)),
    (4999, 19997, 2): (6941389, 8631, ("non_local_at_L",)),
}

# l <= 207497 with symbol u = 1 at (p=37, n=32); the principal subset is
# where the component is a global 37th power.
U1_N32 = frozenset({
    22571, 32783, 46103, 53503, 57943, 64381, 67489, 68821, 79847, 83177,
    96497, 98939, 104933, 108929, 117883, 132313, 146521, 146891, 151553,
    151849, 158657, 158731, 167759, 172717, 197359, 198839, 207497,
})
U1_N32_PRINCIPAL = frozenset({
    32783, 64381, 67489, 68821, 108929, 132313, 146891, 167759, 172717,
    198839, 207497,
})

# l <= 200000 with symbol u = 1 at (p=37, n=22).
U1_N22 = frozenset({
    2221, 2887, 3923, 49211, 51283, 69709, 147779, 164503, 170497, 179969,
    192697, 197803,
})

# Exact twist component for p=11, l=23, n=2 (full conjugate product,
# coefficients on 1, z, ..., z^9), its l-power norm, and the p-valuation
# of the norm of (component - 1).
ALPHA11_COEFFS = [
    17836238554732163868933693789025679469,
    1520229819300797188419125563036321734,
    15023028737838809151251842166615658188,
    2673005955545675004066087284224877298,
    -611074014289231284308386817199658010,
    -644088006192816851608142123579276962,
    -5860674150310922200348907606983566648,
    11757523232198873159205810348854526320,
    -1963231019856677733688722439078492228,
    -8491773970656065727678427465045288222,
]
ALPHA11_NORM_EXPONENT = 275
ALPHA11_MINUS_ONE_NORM_PVAL = 13
ALPHA11_L_CONTENT = 15

# l-power norm exponent of the content-reduced exact component at
# (p=37, l=32783, n=32).
NORM37_REDUCED_EXPONENT = 2664

# Rank scan milestones: first l at which the coefficient matrix of the
# twist products reaches rank p-4.
RANK_MILESTONES = {7: 113, 11: 397, 13: 599, 17: 1259}
RANK_MILESTONES_LARGE = {
    71: 42743, 73: 48473, 79: 50087, 83: 65239,
    151: 247943, 157: 273181, 163: 294053, 167: 305611,
}

# Rank of the p-1 Galois conjugates of the twist product, p=37.
CONJUGATE_RANK37 = {
    149: 31, 223: 32, 593: 32, 1259: 33, 1481: 31,
    1777: 32, 1999: 32, 2221: 32, 2591: 29,
}

# Trace polynomials of Gaussian periods: l -> (f, rendered R).
TRACE7 = {
    29: (7, "x^7 + x^6 + 2*x^5 + 5*x + 1"),
    43: (1, "x^7 + x^6 + 3*x^5 + 3*x^3 + 6*x^2"),
    71: (7, "x^7 + x^6 + 5*x^5 + 3*x^4 + 2*x^3 + 6*x^2 + 4"),
    4943: (7, "x^7 + x^6 + 3*x^5 + x^4 + x^3 + 3*x + 5"),
    4957: (7, "x^7 + x^6 + 4*x^5 + 2*x^4 + 5*x^3 + 3*x^2 + 2*x + 1"),
    4999: (7, "x^7 + x^6 + 4*x^3 + 5*x^2 + 2*x + 6"),
}
# Note: f here follows the valuation rule v_p(ord_l(p)) == v_p(l-1); the
# rendered polynomials for 5591/6211/6271/13451 are the catalog tail for
# p=5 (13451 closes the plateau of 35).
TRACE5_TAIL = {
    5591: (1, "x^5 + x^4 + 4*x^3 + x^2 + 4*x + 2"),
    6211: (1, "x^5 + x^4 + x^3 + x^2 + x"),
    6271: (1, "x^5 + x^4 + 2*x^3 + 4*x^2 + 3*x + 4"),
    13451: (1, "x^5 + x^4"),
}

# Complete first-occurrence catalogs: (l, f, rendered R) in stream order.
TRACE3_CATALOG = [
    (7, 3, "x^3 + x^2 + x + 2"),
    (13, 3, "x^3 + x^2 + 2*x + 1"),
    (19, 3, "x^3 + x^2 + 2"),
    (61, 1, "x^3 + x^2 + x"),
    (67, 1, "x^3 + x^2 + 2*x + 2"),
    (73, 1, "x^3 + x^2"),
]
TRACE5_CATALOG = [
    (11, 5, "x^5 + x^4 + x^3 + 2*x^2 + 3*x + 1"),
    (31, 1, "x^5 + x^4 + 3*x^3 + 4*x^2 + x"),
    (41, 5, "x^5 + x^4 + 4*x^3 + x + 1"),
    (61, 5, "x^5 + x^4 + x^3 + 3*x^2 + x + 2"),
    (71, 5, "x^5 + x^4 + 2*x^3 + 2*x^2 + 1"),
    (101, 5, "x^5 + x^4 + 3*x^2 + 4*x + 3"),
    (131, 5, "x^5 + x^4 + 3*x^3 + x^2 + 4*x + 3"),
    (181, 5, "x^5 + x^4 + 3*x^3 + 2*x^2 + 3*x + 1"),
    (191, 1, "x^5 + x^4 + 4*x^3 + x^2 + 3*x"),
    (211, 5, "x^5 + x^4 + x^3 + x^2 + x + 4"),
    (241, 5, "x^5 + x^4 + 4*x^3 + 3*x^2 + 2*x + 2"),
    (251, 1, "x^5 + x^4 + 4*x + 4"),
    (271, 1, "x^5 + x^4 + 2*x^3 + 4*x^2 + 2*x"),
    (281, 5, "x^5 + x^4 + 3*x^3 + 4*x^2 + 2*x + 2"),
    (311, 5, "x^5 + x^4 + x^3 + 2*x + 1"),
    (331, 5, "x^5 + x^4 + 3*x^3 + 3*x^2 + 2*x + 3"),
    (401, 5, "x^5 + x^4 + 4*x^2 + 4*x + 1"),
    (421, 5, "x^5 + x^4 + 2*x^3 + 4*x^2 + 3*x + 3"),
    (491, 5, "x^5 + x^4 + 4*x^3 + 4*x^2 + 4*x + 2"),
    (541, 5, "x^5 + x^4 + 4*x^3 + 2*x^2 + 1"),
    (571, 5, "x^5 + x^4 + 2*x^3 + 3*x^2 + x + 3"),
    (631, 5, "x^5 + x^4 + 3*x^3 + 4"),
    (691, 5, "x^5 + x^4 + 4*x^3 + x^2 + 4*x + 1"),
    (701, 5, "x^5 + x^4 + 2*x^2 + 4*x + 4"),
    (761, 1, "x^5 + x^4 + x^3 + x^2"),
    (811, 5, "x^5 + x^4 + x^3 + 4*x^2 + 4*x + 2"),
    (821, 5, "x^5 + x^4 + 2*x^3 + 3*x + 4"),
    (971, 5, "x^5 + x^4 + 2*x^3 + x^2 + 4*x + 3"),
    (1151, 5, "x^5 + x^4 + 4"),
    (1301, 5, "x^5 + x^4 + x^2 + 4*x + 4"),
    (5281, 1, "x^5 + x^4 + 3*x^3 + 4*x^2 + 2*x + 3"),
    (5591, 1, "x^5 + x^4 + 4*x^3 + x^2 + 4*x + 2"),
    (6211, 1, "x^5 + x^4 + x^3 + x^2 + x"),
    (6271, 1, "x^5 + x^4 + 2*x^3 + 4*x^2 + 3*x + 4"),
    (13451, 1, "x^5 + x^4"),
]

# Irregularity data: p -> set of even n in [2, p-3] with p | B_n.
IRREGULAR_EXPONENTS = {
    13: frozenset(),
    37: frozenset({32}),
    157: frozenset({62, 110}),
    691: frozenset({12, 200}),
}

# Twisted Bernoulli factor values (p, c, n) -> residue mod p.
B_C_FACTOR_VALUES = {
    (11, 2, 2): 7,
    (11, 8, 2): 1,
    (37, 2, 32): 0,
}

# Heuristic intersection probability: p -> 2*p*value rounded to 4 places.
HEURISTIC_RATIO = {
    5: 0.4000, 7: 0.5656, 11: 0.7183, 37: 0.9136, 101: 0.9680, 199: 0.9837,
}
