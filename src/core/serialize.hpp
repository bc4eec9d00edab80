// Binary serialization of the pipeline's immutable artifacts, for the
// disk-backed artifact store (core/store.hpp).
//
// The encoding is a plain little-endian byte stream -- length-prefixed
// strings, fixed-width integers, IEEE-754 bit patterns for doubles -- so a
// blob written by one process decodes bit-identically in another,
// independent of platform word order or thread count.  Which C++ type an
// Artifact kind holds is decided once, by visitArtifactType
// (core/pipeline.hpp).
//
// Each byte layout is written once.  Every plain artifact type has one
// `layout(Io&, T&)` function (serialize.cpp) that both encodes and decodes
// it: the Writer and the Reader offer the same calls, the Writer writing
// each field and the Reader reading and assigning it.  Six types keep an
// explicit encode/decode pair -- dfg::Dfg, sched::Binding,
// tau::ResourceLibrary, fsm::Guard, fsm::Fsm and verify::Report -- because
// they are decoded by rebuilding them through their mutation APIs, which
// re-validate every class invariant (dense ids, declared signals, unit-type
// ranges, registry severities) on the way in.
//
// Decoding is defensive throughout: every read is bounds-checked, every
// element count bounded by the bytes left, every enum value range-checked,
// and trailing bytes rejected, so a truncated or corrupted blob throws
// tauhls::Error (which the store layer converts into a cache miss) instead of
// crashing or fabricating an artifact.
//
// The format carries a codec version (kArtifactCodecVersion).  Bump it
// whenever any kind's byte layout changes and re-record the pinned blob
// fingerprints (tests/test_store.cpp, PinsEveryArtifactKindsBytes): the store
// records the version in each blob header and treats a mismatch as a miss,
// so stale blobs written by an older binary age out instead of being
// misdecoded.
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
/// Throws tauhls::Error when `value` does not hold the type
/// visitArtifactType gives for `kind`.
std::vector<std::uint8_t> encodeArtifact(Artifact kind, const std::any& value);

/// Decode a blob produced by encodeArtifact for the same `kind` and codec
/// version; returns the shared_ptr<const T>-in-any form the pipeline slots
/// use.  Throws tauhls::Error on any malformed, truncated or range-violating
/// input -- never undefined behaviour.
std::any decodeArtifact(Artifact kind, const std::uint8_t* data,
                        std::size_t size);

}  // namespace tauhls::core
