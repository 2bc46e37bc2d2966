"""repro.gateway — the asyncio multi-tenant analysis gateway.

The front end that turns the analysis service into a long-running
service: framed JSONL and minimal HTTP/1.1 on one TCP port
(``repro gateway``), or framed JSONL over stdin/stdout
(``repro serve``), backed by the persistent warm shard workers of
:mod:`repro.service.shards`.

- :mod:`repro.gateway.protocol` — ``repro.gwframe/1`` frames, the
  JSONL input limits (size/depth caps), the stdlib HTTP/1.1 surface;
- :mod:`repro.gateway.coalesce` — identical in-flight requests share
  one computation;
- :mod:`repro.gateway.admission` — per-tenant token buckets and the
  one bounded priority queue;
- :mod:`repro.gateway.server` — the :class:`~repro.gateway.server.Gateway`
  tying it all together (the shard pool, the scheduling — any idle
  shard takes the next analysis, a program's queries keep one home
  shard — and both transports included).

The load test's zipfian request traces live with the load test, in
``benchmarks/gateway_trace.py``.

Importing the package imports none of its modules, so the CLI can
read :mod:`repro.gateway.protocol`'s limits without loading asyncio or
the server.
"""
