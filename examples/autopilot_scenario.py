"""Auto-piloting scenario from the paper's introduction (Sec. 2.1).

A smart vehicle runs several DNN sub-tasks concurrently on one CPU:
multi-direction object sensing (Tiny-YOLOv2 per camera), scene
classification (MobileNet-V2), and a heavier detector for the front
camera (SSD).  All sub-tasks are latency-critical and share the machine.

The script compares what fraction of frames meet their deadlines under
naive layer-wise co-location vs VELTAIR.

Run:  python examples/autopilot_scenario.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.serving import ServingStack, WorkloadSpec, scenario_queries
from repro.serving.metrics import summarize

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "400"))

#: Sensor frame rates: two cameras at 30 fps each through the light
#: detector, scene classification at 30 fps, front detector at 5 fps.
CAMERA_MIX = WorkloadSpec(name="autopilot", entries=(
    ("tiny_yolov2", 60.0),
    ("mobilenet_v2", 30.0),
    ("ssd_resnet34", 5.0),
))


def main() -> None:
    print("Compiling the vehicle's model set...")
    stack = ServingStack(
        models=["tiny_yolov2", "mobilenet_v2", "ssd_resnet34"],
        trials=TRIALS,
    )
    total_fps = sum(weight for _, weight in CAMERA_MIX.entries)
    print(f"Aggregate sensor load: {total_fps:.0f} inferences/second\n")

    for policy in ("model_fcfs", "layerwise", "veltair_full"):
        queries = scenario_queries(stack.compiled, "poisson", total_fps,
                                   QUERIES, seed=7, spec=CAMERA_MIX)
        completed, engine = stack.run(policy, queries)
        report = summarize(completed, engine.metrics, total_fps)
        by_model = {}
        for query in completed:
            by_model.setdefault(query.model.name, []).append(
                query.satisfied)
        detail = "  ".join(
            f"{name}={sum(v) / len(v):.0%}"
            for name, v in sorted(by_model.items()))
        print(f"{policy:14s} frames in deadline: "
              f"{report.satisfaction_rate:6.1%}   by task: {detail}")

    print("\nThe heavy front detector and the per-camera detectors "
          "interfere through the shared LLC; VELTAIR's interference-"
          "matched code versions and layer blocks keep far more frames "
          "inside their deadline envelopes than naive co-location.")


if __name__ == "__main__":
    main()
