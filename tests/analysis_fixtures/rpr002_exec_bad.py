"""RPR002 fixture (bad): unpicklable callables in the executor package.

Linted with ``module="repro.exec.fixture"``, the package the rule
watches.
"""


class ShardedRunner:
    def run(self, pool, shards):
        futures = [pool.submit(lambda s: s, shard) for shard in shards]
        results = pool.map(self._join_shard, shards)
        return futures, results

    def _join_shard(self, shard):
        return shard


def run_with_initializer(pool_cls, shards):
    def _setup():
        return None

    with pool_cls(initializer=_setup) as pool:
        return list(pool.map(_setup, shards))
