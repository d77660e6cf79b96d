"""The repo's one repeatable performance benchmark (see README.md here).

Five closed-loop workloads against ``deploy_multiprocess(mode="inproc")``,
end-to-end metrics as medians over one-second windows, and a traced re-run
that attributes the time to layers from wrappers kept in this package.
Nothing under ``src/`` is edited or imported at module import time.
"""
