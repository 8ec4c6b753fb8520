"""Per-element reference implementations of the hot production passes.

Each production kernel has one implementation: an array program or a
hand-inlined replay loop. The modules here keep the straightforward
per-element form of the passes that have no per-element production API
of their own, and the parity tests compare the production output against
them bit for bit:

- :mod:`oracles.metadata` — an ``OrderedDict`` set-associative LRU kept
  independent of :class:`repro.mem.cache.LruCacheCore`, the metadata cache
  over synthetic byte addresses, and the SGX sampler and MEE-geometry loops
  over it;
- :mod:`oracles.traces` — the per-access Adam and tiled-GEMM generators;
- :mod:`oracles.pipeline` — the event-driven Fig. 13 pipeline timing;
- :mod:`oracles.streams` — the serial tensor-condition scan.

Where the reference already is a per-element production API (AES
``encrypt_block``, ``keystream``/``encrypt_line``, MEE
``write_line``/``read_line``, ``gemm_time``, TenAnalyzer
``on_read_va``/``on_write_va``) the parity tests call that API directly.
"""
