"""The row sweep of :func:`dfinite.generators.gen_diagonal`, in-process or
split between this process and one worker.

This module imports only ``marshal``, ``os``, ``sys``, ``itertools`` and
``operator``, so that it also runs as the worker's script:
``python -S -I _sweep.py`` starts in about 12 ms, where ``pickle`` or
``typing`` alone would add 10 to 15 ms and a process that imports
``dfinite`` (and numpy and sympy with it) takes over 100 ms.  The two
ends talk over the worker's stdin and stdout in frames: an 8-byte
length, then the ``marshal`` bytes of one value.  Both ends run the same
interpreter, so marshal's format, which may change between Python
versions, is the same on both.  The caller writes one job frame, then
one band frame per layer, all from one thread, so frames never
interleave; a worker whose stdin closes before a job exits with status 0.
"""

from __future__ import annotations

import marshal
import os
import sys
from itertools import accumulate, repeat
from operator import add, floordiv, mul, sub


def _send(fd: int, value) -> None:
    data = marshal.dumps(value)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytearray:
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError("the other end of the sweep's pipe closed")
        buf += chunk
    return buf


def _recv(fd: int):
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def sweep(layers: int, width: int, stages: list, rows: list[tuple[tuple[int, ...], int]],
          spans: list[dict[tuple[int, ...], tuple[int, int]]],
          sources: dict[tuple[int, int], list[tuple[int, int]]],
          reads: dict[int, list[tuple[int, int]]], band: tuple[int, int] | None = None,
          recv: int | None = None, send: int | None = None) -> list[tuple[int, int]]:
    """Sweep ``rows`` of each of ``layers`` layers through the stages and
    return the cells ``reads`` names, as (term index, cell) pairs.

    A layer is a flat list of ``width`` cells.  ``stages[j]`` is
    (groups, along, window, ratio): the terms of factor j off the last
    axis, as (m, [(layer offset, flat offset, sign), ...]) groups that
    share one multiplication by m, the terms on the last axis alone as
    (offset, coefficient), how many layers the stage keeps, and None or,
    for a multinomial first stage, (c, q, s, lift): its groups and along
    make layer 0 only, and cell e of layer a >= 1 is the cell below it
    times c (q a + N) // (q a), N = q K_R(e) = lift[row's flat start] +
    s e[-1].  ``rows`` holds (row, flat start) pairs, a row being a cell's
    coordinates on the row axes; ``spans[j]`` maps a row, with its layer
    index in front, to the (lo, hi) span on the last axis that stage j
    fills, and a row absent from it is skipped in stage j and every later
    one.  ``sources`` maps (layer, flat start of a row) to num's terms
    (last coordinate, coefficient) in that row, and ``reads`` a layer to
    its (term index, flat position) pairs read from the last stage.

    ``band`` is the (start, stop) slice of a layer that another sweep's
    rows hand to this one: with the file descriptor ``recv``, each
    layer's band of every stage is read from it as one frame before the
    rows are swept; with ``send``, it is written to it after.
    """
    stages = [(groups, along, [[0] * width for _ in range(window)], ratio)  # zero layers before layer 0
              for groups, along, window, ratio in stages]
    out = []
    for a in range(layers):
        active = []
        for (groups, along, window, ratio), need in zip(stages, spans):
            cur = [0] * width
            window.append(cur)
            del window[0]
            below = None
            if ratio and a:
                c, q, s, lift = ratio
                below = (window[-2], c, q * a, s, lift)
            active.append(([(m, [(window[-1 - t0], off, pos) for t0, off, pos in ts])
                            for m, ts in groups], along, cur, need, below))
        if recv is not None:
            for stage, cells in zip(active, _recv(recv)):
                stage[2][band[0]:band[1]] = cells
        for mid, base in rows:
            row = (a,) + mid
            acc = None
            src = sources.get((a, base), ())
            for groups, along, cur, need, below in active:
                span = need.get(row)
                if span is None:
                    break  # no later stage reads this row either
                if acc is not None:
                    # the previous stage's row, cut to this stage's span
                    acc = acc[span[0] - lo:span[1] - lo + 1]
                lo, hi = span
                if below is not None:
                    # the multinomial ratio: exact, as cell e of layer a is
                    # c^a C(a + K_R(e), a) times layer 0's
                    prev, c, qa, s, lift = below
                    n = c * (qa + lift[base] + s * lo)
                    d = c * s
                    acc = list(map(floordiv, map(mul, prev[base + lo:base + hi + 1],
                                                 range(n, n + d * (hi + 1 - lo), d) if d else repeat(n)),
                                   repeat(qa)))
                    cur[base + lo:base + hi + 1] = acc
                    continue
                for m, ts in groups:
                    part = None
                    for lay, off, pos in ts:
                        cells = lay[base - off + lo:base - off + hi + 1]
                        part = cells if part is None else map(add if pos else sub, part, cells)
                    if acc is None:
                        acc = part if m == 1 else map(m.__mul__, part)
                    elif m == 1:
                        acc = map(add, acc, part)
                    elif m == -1:
                        acc = map(sub, acc, part)
                    else:
                        acc = map(add, acc, map(m.__mul__, part))
                acc = [0] * (hi + 1 - lo) if acc is None else list(acc)
                for v, c in src:
                    if lo <= v <= hi:
                        acc[v - lo] += c
                src = ()
                # a stage with terms on the last axis alone has lo = 0
                if len(along) == 1:
                    d, c = along[0]
                    step = add if c == 1 else (lambda prev, x: x + c * prev)
                    for r in range(d):
                        acc[r::d] = accumulate(acc[r::d], step)
                elif along:
                    for v in range(hi + 1):
                        for d, c in along:
                            if d <= v:
                                acc[v] += c * acc[v - d]
                cur[base + lo:base + hi + 1] = acc
        if send is not None:
            _send(send, [stage[2][band[0]:band[1]] for stage in active])
        cur = active[-1][2]
        out += [(n, cur[pos]) for n, pos in reads.get(a, ())]
    return out


def _pin_away(pid: int) -> None:
    """Keep process ``pid`` off the CPU this thread runs on.

    A new worker starts on its parent's CPU, and each band the parent
    writes wakes it there again, so on a 2-CPU Linux machine the two
    processes were seen sharing one CPU for whole sweeps while the other
    stood idle.  Where the CPU or the affinity cannot be read or set, the
    worker is left where the scheduler puts it.
    """
    try:
        with open("/proc/thread-self/stat") as f:
            here = int(f.read().rsplit(")", 1)[1].split()[36])  # field 39, the CPU
        os.sched_setaffinity(pid, os.sched_getaffinity(0) - {here})
    except (AttributeError, OSError, ValueError, IndexError):
        pass


def start():
    """A worker process that runs this module as a script, kept off this
    thread's CPU: it sweeps the job ``sweep_pair`` writes it, or exits
    with status 0 when its stdin closes with no job."""
    import subprocess

    proc = subprocess.Popen([sys.executable, "-S", "-I", __file__],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    _pin_away(proc.pid)
    return proc


def stop(proc) -> None:
    """Kill worker ``proc`` unless it has exited, and reap it."""
    proc.kill()  # a no-op once the worker has exited
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def sweep_pair(lower: tuple, upper: tuple, band: tuple[int, int] | None, proc) -> list[tuple[int, int]]:
    """``sweep(*lower)`` here and ``sweep(*upper)`` in the worker ``proc``
    from ``start``, at the same time; the cells both read.

    The upper rows may read the lower rows in ``band`` (None when they
    read none), which this process sends the worker layer by layer, after
    the job; the lower rows read nothing of the upper ones.  A worker that
    fails or exits early raises RuntimeError here, and the worker has
    exited when this returns or raises.
    """
    done = False
    try:
        send = proc.stdin.fileno()
        _send(send, (upper, band))
        out = sweep(*lower, band=band, send=send if band else None)
        proc.stdin.close()
        rest = _recv(proc.stdout.fileno())
        done = True
    except (OSError, EOFError) as e:
        raise RuntimeError("the diagonal's sweep worker failed") from e
    finally:
        if done:
            proc.wait()
        stop(proc)
    if proc.returncode:
        raise RuntimeError("the diagonal's sweep worker exited with status %d" % proc.returncode)
    return out + rest


def _worker() -> None:
    first = os.read(0, 1)
    if not first:
        return  # stdin closed with no job
    upper, band = marshal.loads(_read(0, int.from_bytes(first + _read(0, 7), "little")))
    _send(1, sweep(*upper, band=band, recv=0 if band else None))


if __name__ == "__main__":
    _worker()
