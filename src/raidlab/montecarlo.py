"""The block-keyed Monte-Carlo engine behind ``raidlab.sim``.

Replications are split into blocks of BLOCK.  Block b draws from child b
of SeedSequence(seed) through a counter-based Philox generator and steps
all its replications at once in numpy, so every estimate is bit-identical
under replay, and a process pool that splits the work by block gives the
same result for any worker count.  Each kind of simulation is a block
function, block(rng, size, *args) -> (per-replication sample arrays,
events simulated); ``run`` seeds, splits and concatenates blocks and knows
no kind.  ``raidlab.sim`` imports this module on its first simulation, so
importing raidlab compiles none of it.
"""

import numpy as np

# Replications per block.  A block is one Philox stream and one vectorized
# race; a race takes as many numpy steps as its longest replication has
# events, so larger blocks spread that cost over more replications.
BLOCK = 4096
# the widest per-pass temporary of a copyset block, in array cells
_PASS_CELLS = 1 << 18


def run_blocks(block, args, seed, reps, lo, hi):
    """Blocks lo..hi-1 of `reps` replications.  Block b draws from child b
    of SeedSequence(seed), built on its own, so a slice of blocks costs
    only its own streams."""
    parts, events = [], 0
    for b in range(lo, hi):
        child = np.random.SeedSequence(seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.Philox(child))
        samples, n_events = block(rng, min(BLOCK, reps - b * BLOCK), *args)
        parts.append(samples)
        events += n_events
    return parts, events


def run(block, args, seed, reps, jobs=1):
    """Per-replication samples of `reps` replications, in replication
    order, and the run's extras.  jobs > 1 fans contiguous runs of blocks
    over a process pool; the samples are the same for any worker count."""
    n_blocks = -(-reps // BLOCK)
    jobs = min(jobs, n_blocks)
    if jobs <= 1:
        runs = [run_blocks(block, args, seed, reps, 0, n_blocks)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, n_blocks, jobs + 1).astype(int)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(run_blocks, [block] * jobs, [args] * jobs,
                                 [seed] * jobs, [reps] * jobs,
                                 bounds[:-1], bounds[1:]))
    parts = [p for run_parts, _ in runs for p in run_parts]
    samples = [np.concatenate(column) for column in zip(*parts)]
    return samples, {"events": sum(e for _, e in runs), "blocks": n_blocks}


def race(rng, size, state, step):
    """Race the events of `size` replications until each loses data.

    `state` maps names to arrays with one row per replication.  step(state,
    rng, tick) applies one event to every row and returns the total event
    rate before it and the loss cause, -1 while data survives; tick grows
    with every step.  A lost replication's row restarts from the initial
    state, unrecorded, so that it never reaches a state the kind cannot
    step, until at most half the rows still race; then the rows are
    compacted.  Compacting by halves, not at every loss, keeps the array
    sizes, and so the heap, steady.  Returns ((loss times, causes), events
    simulated).
    """
    times = np.empty(size)
    causes = np.empty(size, dtype=np.int64)
    rows = np.arange(size)  # the replication each row races
    clock = np.zeros(size)
    racing = np.ones(size, dtype=bool)
    fresh = {name: a[0].copy() for name, a in state.items()}
    events = 0
    while rows.size:
        total, cause = step(state, rng, events)
        if not total.all():
            raise ValueError("data is never lost: a replication reached a "
                             "state from which no event can happen")
        clock += rng.standard_exponential(rows.size) / total
        events += int(np.count_nonzero(racing))
        done = cause >= 0
        if not done.any():
            continue
        lost = done & racing
        times[rows[lost]] = clock[lost]
        causes[rows[lost]] = cause[lost]
        racing &= ~done
        for name, a in state.items():
            a[done] = fresh[name]
        if 2 * np.count_nonzero(racing) <= rows.size:
            keep = racing
            rows, clock, racing = rows[keep], clock[keep], racing[keep]
            for name in state:
                state[name] = state[name][keep]
    return (times, causes), events


def pick(weights, v):
    """One column per row, drawn with probability proportional to the
    row's weights, from uniforms v in [0, 1)."""
    cum = weights.cumsum(axis=1)
    return (cum > v[:, None] * cum[:, -1:]).argmax(axis=1)


def hraid_block(rng, size, cfg):
    """The hierarchical procedure of ``sim.sim_hraid_mttdl``: per row, the
    live disks of each node (0 once the node is dead), live-node flags and
    the controller failure count N_c."""
    n, m, gamma, delta = cfg.nodes, cfg.disks_per_node, cfg.gamma, cfg.delta
    k, ell = cfg.inter_tolerance, cfg.intra_tolerance
    state = {"disks": np.full((size, n), m),  # live disks; 0 once dead
             "live": np.ones((size, n), dtype=bool),
             "n_c": np.zeros(size, dtype=np.int64)}

    def step(s, rng, tick):
        disks, live = s["disks"], s["live"]
        ctrl = (n - s["n_c"]) * gamma
        omega = ctrl + disks.sum(axis=1) * delta
        u, v = rng.random((2, omega.size))
        is_ctrl = u * omega < ctrl
        node = pick(np.where(is_ctrl[:, None], live, disks), v)
        rows = np.arange(node.size)
        disks[rows, node] -= ~is_ctrl
        dies = is_ctrl | (disks[rows, node] < m - ell)
        disks[rows, node] *= ~dies
        live[rows, node] = ~dies
        s["n_c"] += is_ctrl
        return omega, np.where(live.sum(axis=1) < n - k, ~is_ctrl, -1)

    return race(rng, size, state, step)


def loop_block(rng, size, n, delta, mu, regime, lost):
    """The component event loop of ``sim.sim_generic_mttdl``: per row, a
    failed-component mask and its count.  lost(failed, down, is_fail) is the
    loss test of the rows just stepped."""
    state = {"failed": np.zeros((size, n), dtype=bool),
             "down": np.zeros(size, dtype=np.int64)}
    if regime == "chen":
        # tick of each failed component's failure; the others sort last
        never = np.iinfo(np.int64).max
        state["since"] = np.full((size, n), never)

    def step(s, rng, tick):
        failed, down = s["failed"], s["down"]
        fail_rate = (n - down) * delta
        repair_rate = (down if regime == "angus" else down > 0) * mu
        total = fail_rate + repair_rate
        u, v = rng.random((2, total.size))
        is_fail = u * total < fail_rate
        # a failure hits a uniformly random live component, an angus repair
        # a uniformly random failed one, a chen repair the oldest failure
        col = pick(failed != is_fail[:, None], v)
        rows = np.arange(col.size)
        if "since" in s:
            col = np.where(is_fail, col, s["since"].argmin(axis=1))
            s["since"][rows, col] = np.where(is_fail, tick, never)
        failed[rows, col] = is_fail
        down += 2 * is_fail - 1
        return total, np.where(is_fail & lost(failed, down, is_fail), 0, -1)

    return race(rng, size, state, step)


def memo_loss(predicate):
    """Loss test of the failed rows that `predicate(failed_ids)` decides,
    asked once per distinct failed set through a memo keyed by the set's
    bitmask."""
    memo = {}

    def lost(failed, down, is_fail):
        out = np.zeros(down.size, dtype=bool)
        rows = np.flatnonzero(is_fail)
        packed = np.packbits(failed[rows], axis=1, bitorder="little")
        verdicts = []
        keys = packed.view("V%d" % packed.shape[1])[:, 0].tolist()
        for key, row in zip(keys, rows):
            if key not in memo:
                ids = np.flatnonzero(failed[row]).tolist()
                memo[key] = bool(predicate(frozenset(ids)))
            verdicts.append(memo[key])
        out[rows] = verdicts
        return out

    return lost


def window_lost(mask, r, s):
    """Loss under random replication, per row of a failed-node mask,
    without materializing copysets: some failed node has >= R-1 failed
    nodes among its S successors."""
    n = mask.shape[1]
    cum = np.zeros((len(mask), n + s + 1), dtype=np.int64)
    np.cumsum(np.concatenate([mask, mask[:, :s]], axis=1), axis=1,
              out=cum[:, 1:])
    return (mask & (cum[:, s + 1:] - cum[:, 1:n + 1] >= r - 1)).any(axis=1)


def copyset_block(rng, size, n, r, s, fail_count, fail_fraction, sets):
    """One outage per replication, drawn and tested in passes of rows that
    keep each temporary near _PASS_CELLS cells; `sets` holds the copysets
    as rows of node ids, or is None for random replication."""
    lost = np.empty(size, dtype=bool)
    per_pass = max(1, _PASS_CELLS // (n + s if sets is None else sets.size))
    for lo in range(0, size, per_pass):
        shape = (min(per_pass, size - lo), n)
        if fail_count is None:
            # each node down with probability f: a Binomial(N, f) count of
            # uniformly chosen nodes
            mask = rng.random(shape) < fail_fraction
        else:
            # the nodes a uniform random permutation ranks below f
            ranks = rng.permuted(np.broadcast_to(np.arange(n), shape), axis=1)
            mask = ranks < fail_count
        lost[lo:lo + len(mask)] = (window_lost(mask, r, s) if sets is None
                                   else mask[:, sets].all(axis=2).any(axis=1))
    return (lost,), size
