"""Label assignment, receptive-field, and FLOPs analysis for
single-level-feature object detection."""

from .geometry import (AnchorConfig, AnchorGrid, ImageSize, apply_shift,
                       as_boxes, box_area, box_centers, generate_anchors, iou,
                       pairwise_iou)
from .matching import (ATSSConfig, GroundTruthSet, HungarianConfig, IGNORED,
                       MATCHERS, MatchResult, MaxIoUConfig, NEGATIVE,
                       TopKConfig, UniformMatchConfig, atss_match,
                       hungarian_match, max_iou_match, nearest_candidates,
                       solve_assignment, topk_match, uniform_match)
from .balance import (MatchDistribution, SizeBuckets, distribution,
                      imbalance_ratio)
from .encoder import (EncoderSpec, RFProfile, WeightSet, forward,
                      impulse_footprint, rf_profile, scale_coverage)
from .flops import (DecoderSpec, EncoderTopology, FlopsReport, conv_flops,
                    encoder_decoder_flops)
from .postprocess import Detection, detection_columns, nms, \
    score_filter
from .coco import (AnnotationCorpus, CorpusError, RunConfig, load_corpus,
                   run_match_stats)

__version__ = "0.1.0"
