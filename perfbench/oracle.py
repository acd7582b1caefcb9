"""Reference answers the benchmark checks the CLI against.

Nothing here imports pnfkit: the profiles come from a direct
sliding-window scan over every window (numpy, one vector pass per
window length), and the enumeration figures are fixed constants.
"""

from __future__ import annotations

import hashlib

import numpy as np

# pnw(0..26), OEIS A194850: 1-prefix-normal words of each length.
PNW = (
    1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185,
    7568, 13997, 25500, 47414, 87024, 162456, 299947, 562345, 1043212,
    1962589, 3657530,
)

# Density histograms of the 1-prefix-normal words of length 24 and 26
# (entry d counts the words with d ones), from one census walk each.
BY_DENSITY = {
    24: (
        1, 1, 23, 132, 672, 2145, 6861, 15703, 35731, 61972, 102069, 132688,
        160592, 155034, 139696, 101363, 67115, 35538, 16959, 6275, 2046, 487,
        96, 12, 1,
    ),
    26: (
        1, 1, 25, 156, 864, 3003, 10477, 26275, 65734, 126408, 232704, 341639,
        470336, 521972, 543776, 463689, 366377, 236255, 139495, 66513, 28593,
        9632, 2855, 623, 113, 13, 1,
    ),
}


def walk_nodes(n: int) -> int:
    """Nodes of the census walk to depth n: every prefix normal word of
    length 0..n."""
    return sum(PNW[: n + 1])


def window_profiles(word: str) -> tuple[list[int], list[int]]:
    """(fmax, fmin): the largest and smallest ones-count over all
    length-k factors of word, for k = 0..n."""
    bits = np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")
    prefix = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    n = len(word)
    fmax = [0] * (n + 1)
    fmin = [0] * (n + 1)
    for k in range(1, n + 1):
        window = prefix[k:] - prefix[: n + 1 - k]
        fmax[k] = int(window.max())
        fmin[k] = int(window.min())
    return fmax, fmin


def forms_from_profiles(fmax: list[int], fmin: list[int]) -> tuple[str, str]:
    """PNF1 steps up with the max-ones profile; PNF0 is 0 wherever the
    max-zeros profile k - fmin[k] steps up."""
    pnf1 = "".join("1" if fmax[k] > fmax[k - 1] else "0" for k in range(1, len(fmax)))
    pnf0 = "".join("1" if fmin[k] > fmin[k - 1] else "0" for k in range(1, len(fmin)))
    return pnf1, pnf0


def is_one_prefix_normal(word: str) -> bool:
    """No factor holds more ones than the prefix of the same length."""
    fmax, _ = window_profiles(word)
    ones = 0
    for k, ch in enumerate(word, start=1):
        ones += ch == "1"
        if fmax[k] != ones:
            return False
    return True


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
