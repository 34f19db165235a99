"""RPR002 fixture (bad): unpicklable callables shipped to an executor.

Linted with ``module="repro.exec.fixture"`` so the rule is in scope.
"""


class ChunkedJoin:
    def run(self, pool, chunks):
        futures = [pool.submit(lambda c: c, chunk) for chunk in chunks]
        results = pool.map(self._probe_chunk, chunks)
        return futures, results

    def _probe_chunk(self, chunk):
        return chunk


def run_with_initializer(pool_cls, chunks):
    def _setup():
        return None

    with pool_cls(initializer=_setup) as pool:
        return list(pool.map(_setup, chunks))
