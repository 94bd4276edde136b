"""Work the benchmark runs in a fresh interpreter.

    child.py setup <workload>                    print set-up seconds as JSON
    child.py cli peak|trace <json-out> <argv...>  run ``mmxest`` with argv and
                                                 write the peak allocation or
                                                 the span summary to json-out

The parent sets PYTHONPATH to the checkout's ``src``.
"""
import json
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter


def setup(root, workload):
    """Import mmxest, then load or validate the workload's bank; seconds taken.

    Random-bank specs are drawn between the two timed parts: drawing them is
    the benchmark's work, validating them is set-up.
    """
    t0 = perf_counter()
    import mmxest
    t1 = perf_counter()
    from workloads import RandomBanks, bank_specs, setup_calls
    specs = bank_specs(mmxest) if workload == RandomBanks.name else None
    t2 = perf_counter()
    setup_calls(mmxest, root, specs)
    return (t1 - t0) + (perf_counter() - t2)


def main(argv):
    root = Path.cwd()
    if argv[0] == "setup":
        print(json.dumps({"setup_s": setup(root, argv[1])}))
        return 0
    mode, out, cli_argv = argv[1], argv[2], argv[3:]
    info = {}
    if mode == "peak":
        tracemalloc.start()
        from mmxest.cli import main as cli_main
        code = cli_main(cli_argv)
        info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        import mmxest.cli
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            code = mmxest.cli.main(cli_argv)
        finally:
            tracer.uninstall()
        info["trace"] = tracer.summary()
    Path(out).write_text(json.dumps(info))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
