"""Parallel experiment farm: sharded execution with deterministic merge.

Every table/figure of the reproduction is a sweep of *independent*
simulations (scenario x seed x repetition x offered rate).  The farm
turns such a sweep into a list of :class:`~repro.farm.spec.RunSpec` work items, shards
them across worker processes, caches results on disk keyed by a stable
content hash, and hands the results back *keyed by spec, not by
completion order* — so a parallel run merges to a record bit-identical
to the serial one.
"""
