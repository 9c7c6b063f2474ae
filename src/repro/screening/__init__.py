"""Approximate screening algorithm for extreme classification (§2.1).

This package is the algorithmic substrate ECSSD accelerates — the ENMC
(MICRO'21) screening pipeline:

1. **Projection** — features and the big FP32 weight matrix are projected
   from hidden dimension D to a shrunk dimension K (paper: K = D/4).
2. **Quantization** — projected weights/features become 4-bit integers.
3. **Screening** — an INT4 vector-matrix multiply scores all L labels
   approximately; a pre-trained threshold keeps ~10% as candidates.
4. **Candidate-only classification** — only the candidates' FP32 weight
   vectors are fetched and multiplied in full precision; the top-k of those
   are the final predictions.

:class:`repro.screening.model.ApproximateScreeningModel` glues the stages.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".projection": ("ProjectionMatrix", "project"),
    ".quantization": ("Int4Quantizer", "QuantizedMatrix"),
    ".screener": ("ScreenResult", "Int4Screener"),
    ".thresholds": ("ThresholdCalibrator", "calibrate_threshold"),
    ".classifier": ("CandidateClassifier", "ClassificationResult"),
    ".model": ("ApproximateScreeningModel", "InferenceStats"),
    ".sensitivity": ("IntQuantizer", "SensitivityPoint", "sensitivity_sweep"),
})
