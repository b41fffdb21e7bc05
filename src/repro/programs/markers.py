"""Phase-marker values emitted by the generated DES programs.

Markers are stores to the pipeline's MARKER_ADDR; experiments use them to
window energy traces to the exact phases the paper's figures show (the
first round, the first key permutation, ...).
"""

from __future__ import annotations

M_IP_START = 1        #: initial permutation of the plaintext begins
M_IP_END = 2
M_KEYPERM_START = 3   #: PC-1 key permutation begins (paper Fig. 12 phase)
M_KEYPERM_END = 4
M_FP_START = 5        #: output inverse permutation begins
M_FP_END = 6
#: Round r (0-based) starts at marker M_ROUND_BASE + r.
M_ROUND_BASE = 10
