"""Traced stand-in for ``repro-experiments shard-serve``.

Starts the program's own ``run_serve`` after wrapping, in this process,
``ShardRequestHandler.handle`` and the frame codec under the names the
shard server calls them by.  On shutdown (SIGINT or SIGTERM) it writes its
spans, one JSON object a line, to the ``--spans`` file, after a line for
each function it could not wrap.

    python3 perfbench/shard_launcher.py --spans FILE --tcp 127.0.0.1:0
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_source_tree  # noqa: E402
from spans import Tracer  # noqa: E402


def _interrupt(*_args) -> None:
    raise KeyboardInterrupt


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: shard_launcher.py --spans FILE <shard-serve arguments>", file=sys.stderr)
        return 2
    spans_path, serve_args = argv[1], argv[2:]
    use_source_tree()
    import repro.core.remote as remote
    import repro.core.socket_backend as socket_backend

    tracer = Tracer()
    tracer.patch(
        socket_backend, "decode_frame",
        lambda args, result: "codec:decode_oneway" if result and result[0] == 0 else "codec:decode_frame",
        label="codec:decode_frame",
    )
    tracer.patch(socket_backend, "encode_frame", "codec:encode_frame")
    tracer.patch(
        remote.ShardRequestHandler, "handle",
        lambda args, result: (
            "remote:handle_oneway" if args[1] == 0
            else "remote:handle_restore" if args[2] == "restore_state" else "remote:handle"
        ),
        label="remote:handle",
    )
    signal.signal(signal.SIGTERM, _interrupt)
    tracer.start()
    try:
        return socket_backend.run_serve(serve_args)
    finally:
        tracer.stop()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
