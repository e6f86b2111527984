"""Value prediction: the VPT structure and the predictor zoo.

One front end, :class:`~repro.vp.predictors.ValuePredictor`, serves every
predictor kind through a per-kind model: VP_Magic / VP_LVP (the paper's
Section 4.1.1 pair), VP_Perfect, the two-delta stride predictor, the
order-2 FCM predictor, and the confidence-gated stride/LVP/FCM hybrid
selector.
"""
