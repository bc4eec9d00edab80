// Binary serialization of the pipeline's immutable artifacts, for the
// disk-backed artifact store (core/store.hpp).
//
// Every Artifact kind (core/pipeline.hpp) has one codec.  The encoding is a
// plain little-endian byte stream -- length-prefixed strings, fixed-width
// integers, IEEE-754 bit patterns for doubles -- so a blob written by one
// process decodes bit-identically in another, independent of platform word
// order or thread count.  Decoding is defensive throughout: every read is
// bounds-checked and every enum value range-checked, so a truncated or
// corrupted blob throws tauhls::Error (which the store layer converts into a
// cache miss) instead of crashing or fabricating an artifact.
//
// The format carries a codec version (kArtifactCodecVersion).  Bump it
// whenever any kind's byte layout changes: the store records the version in
// each blob header and treats a mismatch as a miss, so stale blobs written by
// an older binary age out instead of being misdecoded.
#pragma once

#include <cstdint>
#include <any>
#include <vector>

#include "core/pipeline.hpp"

namespace tauhls::core {

/// Byte-layout version of all artifact codecs (store blobs carry it).
/// v5 added the XCheck artifact (X-propagation / don't-care soundness); v6
/// marks the SymbolicCheck stats of the shared network lowering (one latch
/// per consumed signal), so blobs holding the older stats miss.
inline constexpr std::uint32_t kArtifactCodecVersion = 6;

/// Encode the artifact held by `value` (a std::shared_ptr<const T> boxed in
/// std::any, exactly as the pipeline's slots and the ArtifactCache hold it).
/// Throws tauhls::Error when `value` does not hold the type documented for
/// `kind` on the Artifact enum.
std::vector<std::uint8_t> encodeArtifact(Artifact kind, const std::any& value);

/// Decode a blob produced by encodeArtifact for the same `kind` and codec
/// version; returns the shared_ptr<const T>-in-any form the pipeline slots
/// use.  Throws tauhls::Error on any malformed, truncated or range-violating
/// input -- never undefined behaviour.
std::any decodeArtifact(Artifact kind, const std::uint8_t* data,
                        std::size_t size);

}  // namespace tauhls::core
