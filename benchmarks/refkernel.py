"""The reference kernel that ``speed.py`` times to gauge the machine's load.

It imports nothing, so a fresh interpreter can time it around an import of
the package without loading any module that import would load itself.
"""

MASK = (1 << 64) - 1
ROWS = tuple(((i * 0x9E3779B97F4A7C15) ^ (i << 29)) & MASK for i in range(64))


def kernel() -> int:
    """Fixed work in the package's idiom: bitset walks, dicts and lists."""
    acc = 0
    for _ in range(3):
        for v in range(64):
            row = ROWS[v]
            while row:
                low = row & -row
                acc += (ROWS[low.bit_length() - 1] & ROWS[v]).bit_count()
                row ^= low
    table = {}
    recent = []
    for i in range(6000):
        x = ROWS[i & 63]
        table[i & 511] = x & i
        recent.append((x >> (i & 31)) & 0xFF)
        acc += table.get((i * 7) & 511, 0) & 0xFF
        if len(recent) > 64:
            recent.clear()
    return acc
