"""Radiomic feature extraction: shape, first-order, and texture-matrix classes."""

from .extract import ExtractionConfig, extract_all, feature_names
from .firstorder import ENTROPY_BINS, FIRSTORDER_FEATURES, bin_levels, firstorder_features
from .shape import SHAPE_FEATURES, shape_features
from .texture import (
    DIRECTIONS_13,
    FAMILY_FEATURES,
    GLCM_FEATURES,
    GLDM_FEATURES,
    GLRLM_FEATURES,
    GLSZM_FEATURES,
    TEXTURE_FAMILIES,
    DiscretizedRoi,
    discretize,
    texture_features,
)

__all__ = [
    "ExtractionConfig",
    "extract_all",
    "feature_names",
    "ENTROPY_BINS",
    "FIRSTORDER_FEATURES",
    "bin_levels",
    "firstorder_features",
    "SHAPE_FEATURES",
    "shape_features",
    "DIRECTIONS_13",
    "FAMILY_FEATURES",
    "GLCM_FEATURES",
    "GLDM_FEATURES",
    "GLRLM_FEATURES",
    "GLSZM_FEATURES",
    "TEXTURE_FAMILIES",
    "DiscretizedRoi",
    "discretize",
    "texture_features",
]
