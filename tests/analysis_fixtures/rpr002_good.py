"""RPR002 fixture (good): module-level functions cross the boundary.

Linted with ``module="repro.exec.fixture"`` so the rule is in scope.
"""


def _probe_chunk(chunk):
    return chunk


def _init_worker():
    return None


def run(pool_cls, chunks):
    with pool_cls(initializer=_init_worker) as pool:
        futures = [pool.submit(_probe_chunk, chunk) for chunk in chunks]
        results = pool.map(_probe_chunk, chunks)
    return futures, results
