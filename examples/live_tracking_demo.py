"""Live tracking demo: watch the in-sensor pipeline frame by frame.

Simulates a recording with saccades and blinks, runs every frame through
the functional sensor (analog eventification -> ROI DNN -> SRAM-RNG
sampling -> sparse readout -> RLE) and the host (decode -> sparse ViT ->
gaze regression), and prints an ASCII visualization per frame:

* the event map the sensor computed,
* the predicted ROI box and the sampled pixels,
* predicted vs. true gaze, flagged on saccade/blink frames.

The trained system comes out of a ``repro.api`` session — the demo spec
is declarative and the joint training is the session-memoized one — and
the demo then drives the trained sensor *directly*, frame by frame,
which is exactly the layering the API is for: ``Session`` for training
and batch experiments, the underlying pipeline objects for interactive
streaming.

Run:  python examples/live_tracking_demo.py
"""

from repro.api import ExperimentSpec, Session

DEMO_SPEC = {
    "workload": "evaluate",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 20,
        "eye_scale": 0.7,
        "dynamics": "lively",
        "blink_rate_hz": 2.0,
    },
    "training": {"train_indices": [0, 1]},
}


def ascii_panel(frame, mask, box, width=32):
    """Downsampled ASCII view: pixels, sampled points, ROI corners."""
    height = frame.shape[0]
    step = max(1, height // 16)
    chars = " .:-=+*#%@"
    lines = []
    for r in range(0, height, step):
        row = []
        for c in range(0, frame.shape[1], step):
            block_mask = mask[r : r + step, c : c + step]
            if block_mask.any():
                row.append("o")  # sampled pixel present
            elif box and box[0] <= r < box[2] and box[1] <= c < box[3]:
                row.append("'")  # inside ROI, not sampled
            else:
                value = frame[r : r + step, c : c + step].mean()
                row.append(chars[int(value * 9.99)])
        lines.append("".join(row))
    return lines


def main() -> None:
    spec = ExperimentSpec.from_dict(DEMO_SPEC)
    print("training (a few seconds)...")
    with Session() as session:
        pipeline = session.pipeline(spec)

        sensor = pipeline.build_sensor()
        seq = pipeline.dataset[2]
        prev_seg = None

        print(f"\nstreaming sequence 2 ({len(seq)} frames)")
        print("legend: o = sampled pixel, ' = in-ROI unsampled, shades = scene\n")
        for t in range(len(seq)):
            out = sensor.capture(seq.frames[t], prev_seg)
            if out is None:
                print(f"frame {t:2d}: bootstrap (held in analog memory)")
                continue
            sparse, mask = sensor.host_decode(out)
            seg_pred = pipeline.segmenter.predict_packed_batch(
                sparse[None], mask[None]
            )[0]
            prev_seg = seg_pred
            gaze = pipeline.gaze_estimator.predict(seg_pred)
            truth = seq.gazes[t]

            flags = []
            if seq.saccade_flags[t]:
                flags.append("SACCADE")
            if seq.blink_flags[t]:
                flags.append("BLINK")
            header = (
                f"frame {t:2d}: gaze pred ({gaze[0]:+6.1f}, {gaze[1]:+6.1f}) deg   "
                f"true ({truth[0]:+6.1f}, {truth[1]:+6.1f})   "
                f"events {out.event_map.mean():5.1%}  "
                f"sampled {out.sampled_pixels:4d}px  "
                f"tx {out.transmitted_bytes:4d}B  "
                + " ".join(flags)
            )
            print(header)
            for line in ascii_panel(seq.frames[t], out.sample_mask, out.roi_box):
                print("    " + line)
            print()


if __name__ == "__main__":
    main()
