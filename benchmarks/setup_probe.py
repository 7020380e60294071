"""Time one fresh-process set-up and print it in seconds.

Set-up is importing tweetslots, loading the config, and building the
registry, clean config, gazetteer and type map once. Usage:
``python3 setup_probe.py CONFIG`` with ``src`` on ``PYTHONPATH``.
"""

import sys
import time

MAKERS = ("make_registry", "make_clean_config", "make_gazetteer", "make_type_map")

if __name__ == "__main__":
    start = time.perf_counter()
    from tweetslots import pipeline

    cfg = pipeline.load_config(sys.argv[1])
    for name in MAKERS:
        maker = getattr(pipeline, name, None)
        if maker is not None:
            maker(cfg)
    print(time.perf_counter() - start)
