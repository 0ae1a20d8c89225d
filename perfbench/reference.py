"""The reference run: a fixed pure-Python job that measures the host's speed.

    python3 perfbench/reference.py      # prints its checksum

On a shared host the speed a process gets moves by 30 % and more, for
minutes at a time, with other tenants' load, so seconds measured in one
run do not compare with seconds measured a few minutes later.  run.py
starts this script as a child interpreter, the way it starts a
workload's children, before the first child and after every child, and
reports each child's times in units of the mean wall time of the two
reference runs around it.  The host's speed then largely cancels: in a
ten-minute trace the wall times of workload children followed those of
the reference runs just before them with a correlation of 0.7 to 0.8.

The job does the kind of work powmon does (products of subsets of a
small table as frozensets, dict counting) but imports nothing from
powmon, so a change to powmon cannot move it.  Its checksum proves it did
the same work every time.
"""

import random

CHECKSUM = 63200    # distinct products found below; another value means the job changed


def job():
    rng = random.Random(7)
    n = 24
    found = 0
    for _ in range(5):
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        subsets = [frozenset(rng.sample(range(n), rng.randrange(1, 6))) for _ in range(300)]
        seen = {}
        for a in subsets:
            for b in subsets[:60]:
                p = frozenset(table[x][y] for x in a for y in b)
                seen[p] = seen.get(p, 0) + 1
        found += len(seen)
    return found


if __name__ == "__main__":
    print(job())
