"""``python -m repro.serve.gateway``: run a standalone serving gateway.

Binds the binary protocol on ``--host``/``--port``, spawns ``--workers``
worker processes, prints the bound address, and serves until a wire
``SHUTDOWN`` op or Ctrl-C.  ``examples/gateway_traffic.py`` drives one.
"""

from __future__ import annotations

import argparse

from repro.api.config import ExecutionConfig
from repro.serve.gateway.gateway import Gateway


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.gateway",
        description="Serve SpMM over the binary gateway protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (printed on start)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--threads", type=int, default=1,
                        help="simulated CPU threads per worker service")
    parser.add_argument("--split", default="auto")
    parser.add_argument("--backend", default="native")
    parser.add_argument("--system", default="jit")
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument("--tenant-quota", type=int, default=None)
    parser.add_argument("--slot-bytes", type=int, default=1 << 20)
    parser.add_argument("--mp-start", default="spawn",
                        choices=("spawn", "fork", "forkserver"))
    args = parser.parse_args(argv)

    config = ExecutionConfig(
        split=args.split, threads=args.threads, backend=args.backend,
        workers=args.workers, max_inflight=args.max_inflight,
        tenant_quota=args.tenant_quota)
    gateway = Gateway(config, host=args.host, port=args.port,
                      system=args.system, slot_bytes=args.slot_bytes,
                      mp_start=args.mp_start)
    gateway.start()
    print(f"gateway listening on {gateway.host}:{gateway.port} "
          f"({args.workers} workers, backend={args.backend})", flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        gateway.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
