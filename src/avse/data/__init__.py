"""Scene construction and I/O: WAV, tensor files, mixing, synthesis, manifests."""

from avse.data.manifest import ManifestEntry, load_manifest
from avse.data.mixer import mix_scene
from avse.data.synth import Scene, synth_scene
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import load_wav, save_wav

__all__ = [
    "load_wav",
    "save_wav",
    "read_tensor",
    "write_tensor",
    "mix_scene",
    "Scene",
    "synth_scene",
    "ManifestEntry",
    "load_manifest",
]
