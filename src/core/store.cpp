#include "core/store.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/serialize.hpp"

namespace tauhls::core {

namespace fs = std::filesystem;

namespace {

// Blob header, serialized little-endian field by field (never memcpy'd as a
// struct, so padding and host endianness cannot leak into the format).
//
//   magic            "TAUS"
//   formatVersion    kStoreFormatVersion
//   codecVersion     kArtifactCodecVersion (serialize.hpp)
//   kindTag          Artifact enum value the payload decodes as
//   payloadSize      bytes following the header
//   checksum         common::Hasher fingerprint of the payload bytes
constexpr std::uint32_t kBlobMagic = 0x53554154;  // "TAUS"
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 16;

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t getU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

common::Fingerprint payloadChecksum(const std::vector<std::uint8_t>& payload) {
  common::Hasher h;
  h.str("tauhls-store-blob");
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

std::optional<common::Fingerprint> parseHex(const std::string& hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else return std::nullopt;
      words[w] = (words[w] << 4) | nibble;
    }
  }
  return common::Fingerprint{words[0], words[1]};
}

}  // namespace

std::string renderStoreJson(const StoreStats& s) {
  JsonWriter w;
  w.beginObject();
  w.key("schema").value("tauhls-store");
  w.key("version").value(kStoreJsonVersion);
  w.key("formatVersion").value(kStoreFormatVersion);
  w.key("codecVersion").value(kArtifactCodecVersion);
  w.key("blobs").value(s.blobs);
  w.key("bytes").value(s.bytes);
  w.key("maxBytes").value(s.maxBytes);
  w.key("hits").value(s.hits);
  w.key("misses").value(s.misses);
  w.key("corrupt").value(s.corrupt);
  w.key("puts").value(s.puts);
  w.key("evictedBlobs").value(s.evictedBlobs);
  w.key("evictedBytes").value(s.evictedBytes);
  w.endObject();
  return w.str();
}

ArtifactStore::ArtifactStore(StoreOptions options)
    : dir_(std::move(options.dir)), maxBytes_(options.maxBytes) {
  std::error_code ec;
  fs::create_directories(dir_ / "blobs", ec);
  TAUHLS_CHECK(!ec, "artifact store: cannot create " +
                        (dir_ / "blobs").string() + ": " + ec.message());
  fs::create_directories(dir_ / "tmp", ec);
  TAUHLS_CHECK(!ec, "artifact store: cannot create " +
                        (dir_ / "tmp").string() + ": " + ec.message());
  std::lock_guard<std::mutex> lock(mu_);
  loadIndexLocked();
}

ArtifactStore::~ArtifactStore() {
  std::lock_guard<std::mutex> lock(mu_);
  try {
    flushIndexLocked();
  } catch (...) {
    // Destructor must not throw; a lost index is rebuilt by the next open.
  }
}

fs::path ArtifactStore::blobPath(const common::Fingerprint& key) const {
  return dir_ / "blobs" / (key.toHex() + ".blob");
}

void ArtifactStore::loadIndexLocked() {
  entries_.clear();
  totalBytes_ = 0;
  std::ifstream in(dir_ / "index.txt");
  bool usable = false;
  if (in) {
    std::string tag;
    std::uint32_t version = 0;
    if (in >> tag >> version && tag == "tauhls-store-index" &&
        version == kStoreFormatVersion) {
      usable = true;
      std::string hex;
      std::uint32_t kind = 0;
      std::uint64_t size = 0, seq = 0;
      while (in >> hex >> kind >> size >> seq) {
        const auto key = parseHex(hex);
        if (!key) {
          usable = false;
          break;
        }
        entries_[*key] = Entry{size, seq, kind};
        totalBytes_ += size;
        nextSeq_ = std::max(nextSeq_, seq + 1);
      }
    }
  }
  if (!usable) {
    rebuildIndexFromScanLocked();
    return;
  }
  // Reconcile against the blob directory: another process may have added or
  // evicted blobs since the index was written.  The index only contributes
  // the LRU sequence numbers; existence and sizes come from the filesystem.
  std::vector<common::Fingerprint> stale;
  for (const auto& [key, entry] : entries_) {
    std::error_code ec;
    const auto size = fs::file_size(blobPath(key), ec);
    if (ec) {
      stale.push_back(key);
    } else if (size != entry.size) {
      totalBytes_ += size - entry.size;
      entries_[key].size = size;
    }
  }
  for (const common::Fingerprint& key : stale) {
    totalBytes_ -= entries_[key].size;
    entries_.erase(key);
  }
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(dir_ / "blobs", ec)) {
    if (!file.is_regular_file()) continue;
    const auto key = parseHex(file.path().stem().string());
    if (!key || entries_.contains(*key)) continue;
    std::error_code sec;
    const auto size = fs::file_size(file.path(), sec);
    if (sec) continue;
    entries_[*key] = Entry{size, 0, 0};  // kind recovered on first load
    totalBytes_ += size;
  }
}

void ArtifactStore::rebuildIndexFromScanLocked() {
  entries_.clear();
  totalBytes_ = 0;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(dir_ / "blobs", ec)) {
    if (!file.is_regular_file()) continue;
    const auto key = parseHex(file.path().stem().string());
    if (!key) continue;
    std::error_code sec;
    const auto size = fs::file_size(file.path(), sec);
    if (sec) continue;
    entries_[*key] = Entry{size, 0, 0};
    totalBytes_ += size;
  }
}

void ArtifactStore::flushIndexLocked() {
  // Deterministic line order (sorted by hex key) keeps the index diffable.
  std::vector<std::pair<std::string, const Entry*>> lines;
  lines.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    lines.emplace_back(key.toHex(), &entry);
  }
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::ostringstream body;
  body << "tauhls-store-index " << kStoreFormatVersion << "\n";
  for (const auto& [hex, entry] : lines) {
    body << hex << " " << entry->kind << " " << entry->size << " "
         << entry->seq << "\n";
  }

  const fs::path tmp =
      dir_ / "tmp" / ("index." + std::to_string(++tmpCounter_) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TAUHLS_CHECK(static_cast<bool>(out),
                 "artifact store: cannot write " + tmp.string());
    out << body.str();
    out.flush();
    TAUHLS_CHECK(static_cast<bool>(out),
                 "artifact store: short write to " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, dir_ / "index.txt", ec);
  if (ec) fs::remove(tmp, ec);
}

void ArtifactStore::flushIndex() {
  std::lock_guard<std::mutex> lock(mu_);
  flushIndexLocked();
}

bool ArtifactStore::contains(const common::Fingerprint& key) const {
  std::error_code ec;
  return fs::exists(blobPath(key), ec);
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    const common::Fingerprint& key, std::uint32_t kindTag) {
  const fs::path path = blobPath(key);

  std::string raw;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    raw = buffer.str();
  }

  auto reject = [&]() -> std::optional<std::vector<std::uint8_t>> {
    // Corrupted, truncated or mismatched blob: unlink so the slot is
    // rewritten cleanly by the recompute, and report a miss.
    std::error_code ec;
    fs::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
    ++stats_.misses;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      totalBytes_ -= it->second.size;
      entries_.erase(it);
    }
    return std::nullopt;
  };

  if (raw.size() < kHeaderBytes) return reject();
  const auto* p = reinterpret_cast<const std::uint8_t*>(raw.data());
  if (getU32(p) != kBlobMagic) return reject();
  if (getU32(p + 4) != kStoreFormatVersion) return reject();
  if (getU32(p + 8) != kArtifactCodecVersion) return reject();
  if (getU32(p + 12) != kindTag) return reject();
  const std::uint64_t payloadSize = getU64(p + 16);
  if (payloadSize != raw.size() - kHeaderBytes) return reject();
  const common::Fingerprint expected{getU64(p + 24), getU64(p + 32)};

  std::vector<std::uint8_t> payload(p + kHeaderBytes, p + raw.size());
  if (payloadChecksum(payload) != expected) return reject();

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.hits;
  Entry& entry = entries_[key];
  entry.size = raw.size();
  entry.seq = nextSeq_++;
  entry.kind = kindTag;
  return payload;
}

void ArtifactStore::put(const common::Fingerprint& key, std::uint32_t kindTag,
                        const std::vector<std::uint8_t>& payload) {
  const fs::path path = blobPath(key);
  const std::uint64_t blobSize = kHeaderBytes + payload.size();

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Content-addressed: an existing entry already holds these bytes.
      it->second.seq = nextSeq_++;
      return;
    }
    if (maxBytes_ != 0 && totalBytes_ + blobSize > maxBytes_) {
      evictUntilLocked(maxBytes_ > blobSize ? maxBytes_ - blobSize : 0);
    }
  }

  std::string blob;
  blob.reserve(blobSize);
  putU32(blob, kBlobMagic);
  putU32(blob, kStoreFormatVersion);
  putU32(blob, kArtifactCodecVersion);
  putU32(blob, kindTag);
  putU64(blob, payload.size());
  const common::Fingerprint checksum = payloadChecksum(payload);
  putU64(blob, checksum.hi);
  putU64(blob, checksum.lo);
  blob.append(reinterpret_cast<const char*>(payload.data()), payload.size());

  fs::path tmp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tmp = dir_ / "tmp" /
          (key.toHex() + "." + std::to_string(++tmpCounter_) + ".tmp");
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TAUHLS_CHECK(static_cast<bool>(out),
                 "artifact store: cannot write " + tmp.string());
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    TAUHLS_CHECK(static_cast<bool>(out),
                 "artifact store: short write to " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    TAUHLS_FAIL("artifact store: cannot publish " + path.string());
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.puts;
  if (!entries_.contains(key)) totalBytes_ += blobSize;
  entries_[key] = Entry{blobSize, nextSeq_++, kindTag};
}

void ArtifactStore::evictUntilLocked(std::uint64_t targetBytes) {
  while (totalBytes_ > targetBytes && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.seq < victim->second.seq) victim = it;
    }
    std::error_code ec;
    fs::remove(blobPath(victim->first), ec);
    totalBytes_ -= victim->second.size;
    ++stats_.evictedBlobs;
    stats_.evictedBytes += victim->second.size;
    entries_.erase(victim);
  }
}

std::uint64_t ArtifactStore::gc(std::uint64_t targetBytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t before = stats_.evictedBytes;
  evictUntilLocked(targetBytes);
  flushIndexLocked();
  return stats_.evictedBytes - before;
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats s = stats_;
  s.blobs = entries_.size();
  s.bytes = totalBytes_;
  s.maxBytes = maxBytes_;
  return s;
}

}  // namespace tauhls::core
