#include "core/checkpoint.h"

#include <cstring>

namespace crowdmax {

namespace {

void AppendLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

CheckpointWriter::CheckpointWriter() {
  WriteU32(kCheckpointMagic);
  WriteU32(kCheckpointVersion);
}

void CheckpointWriter::WriteU32(uint32_t v) { AppendLe(&bytes_, v, 4); }

void CheckpointWriter::WriteU64(uint64_t v) { AppendLe(&bytes_, v, 8); }

void CheckpointWriter::WriteI64(int64_t v) {
  WriteU64(static_cast<uint64_t>(v));
}

void CheckpointWriter::WriteBool(bool v) {
  bytes_.push_back(v ? '\x01' : '\x00');
}

void CheckpointWriter::WriteDouble(double v) {
  // Bit-exact round trip; doubles in checkpointed state are deterministic
  // products of the seeded RNGs, so the bit pattern is canonical.
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void CheckpointWriter::WriteString(const std::string& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  bytes_.append(v);
}

void CheckpointWriter::WriteStatus(const Status& v) {
  WriteU32(static_cast<uint32_t>(v.code()));
  WriteString(v.message());
  WriteI64(v.retry_after_steps());
}

void CheckpointWriter::WriteRngState(const std::array<uint64_t, 5>& state) {
  for (uint64_t word : state) WriteU64(word);
}

Result<CheckpointReader> CheckpointReader::Open(std::string bytes) {
  CheckpointReader reader(std::move(bytes));
  const uint32_t magic = reader.ReadU32();
  const uint32_t version = reader.ReadU32();
  if (!reader.status().ok()) {
    return Status::FailedPrecondition(
        "checkpoint too short for its 8-byte header");
  }
  if (magic != kCheckpointMagic) {
    return Status::FailedPrecondition(
        "not a crowdmax checkpoint (bad magic)");
  }
  if (version > kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint format version " + std::to_string(version) +
        " is newer than the supported version " +
        std::to_string(kCheckpointVersion) +
        "; upgrade before restoring this checkpoint");
  }
  return reader;
}

bool CheckpointReader::Take(size_t n, const unsigned char** out) {
  if (!status_.ok()) return false;
  // Compared as the bytes left, so a damaged length near 2^64 cannot
  // wrap the sum past the check.
  if (n > bytes_.size() - pos_) {
    status_ = Status::FailedPrecondition(
        "checkpoint truncated at byte " + std::to_string(pos_));
    return false;
  }
  *out = reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
  pos_ += n;
  return true;
}

uint32_t CheckpointReader::ReadU32() {
  const unsigned char* p = nullptr;
  if (!Take(4, &p)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t CheckpointReader::ReadU64() {
  const unsigned char* p = nullptr;
  if (!Take(8, &p)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

int64_t CheckpointReader::ReadI64() {
  return static_cast<int64_t>(ReadU64());
}

bool CheckpointReader::ReadBool() {
  const unsigned char* p = nullptr;
  if (!Take(1, &p)) return false;
  return *p != 0;
}

double CheckpointReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::ReadString() {
  const uint64_t n = ReadU64();
  const unsigned char* p = nullptr;
  if (!Take(static_cast<size_t>(n), &p)) return std::string();
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<size_t>(n));
}

Status CheckpointReader::ReadStatus() {
  const uint32_t code = ReadU32();
  std::string message = ReadString();
  const int64_t retry_after = ReadI64();
  if (!status_.ok()) return Status::OK();
  if (code == 0) return Status::OK();
  // Reconstruct through the Internal factory then overwrite the code via
  // the public surface: Status has no (code, message) constructor exposed,
  // so map the code explicitly.
  Status out;
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      out = Status::InvalidArgument(std::move(message));
      break;
    case StatusCode::kFailedPrecondition:
      out = Status::FailedPrecondition(std::move(message));
      break;
    case StatusCode::kNotFound:
      out = Status::NotFound(std::move(message));
      break;
    case StatusCode::kOutOfRange:
      out = Status::OutOfRange(std::move(message));
      break;
    case StatusCode::kInternal:
      out = Status::Internal(std::move(message));
      break;
    case StatusCode::kUnavailable:
      out = Status::Unavailable(std::move(message));
      break;
    case StatusCode::kResourceExhausted:
      out = Status::ResourceExhausted(std::move(message));
      break;
    case StatusCode::kDeadlineExceeded:
      out = Status::DeadlineExceeded(std::move(message));
      break;
    case StatusCode::kAborted:
      out = Status::Aborted(std::move(message));
      break;
    default:
      status_ = Status::FailedPrecondition(
          "checkpoint carries unknown status code " + std::to_string(code));
      return Status::OK();
  }
  if (retry_after > 0) out.WithRetryAfter(retry_after);
  return out;
}

std::array<uint64_t, 5> CheckpointReader::ReadRngState() {
  std::array<uint64_t, 5> state = {};
  for (uint64_t& word : state) word = ReadU64();
  return state;
}

std::vector<int64_t> CheckpointReader::ReadIdVector() {
  const uint64_t n = ReadU64();
  std::vector<int64_t> ids;
  if (!status_.ok()) return ids;
  // A corrupt length must not drive a multi-gigabyte reserve; the per-read
  // bounds check below fails fast instead.
  for (uint64_t i = 0; i < n && status_.ok(); ++i) ids.push_back(ReadI64());
  return ids;
}

void CheckpointReader::Reject(const std::string& message) {
  if (status_.ok()) status_ = Status::FailedPrecondition(message);
}

void CheckpointReader::ExpectTag(uint32_t tag) {
  const size_t at = pos_;
  const uint32_t got = ReadU32();
  if (status_.ok() && got != tag) {
    status_ = Status::FailedPrecondition(
        "checkpoint section tag mismatch at byte " + std::to_string(at));
  }
}

Status CheckpointReader::Finish() const {
  if (!status_.ok()) return status_;
  if (!AtEnd()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(bytes_.size() - pos_) +
        " trailing bytes");
  }
  return Status::OK();
}

std::string CheckpointToHex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

Result<std::string> CheckpointFromHex(const std::string& hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  int hi = -1;
  for (char c : hex) {
    if (c == '\n' || c == '\r' || c == ' ' || c == '\t') continue;
    const int v = nibble(c);
    if (v < 0) {
      return Status::InvalidArgument("invalid hex digit in checkpoint");
    }
    if (hi < 0) {
      hi = v;
    } else {
      out.push_back(static_cast<char>((hi << 4) | v));
      hi = -1;
    }
  }
  if (hi >= 0) {
    return Status::InvalidArgument("odd number of hex digits in checkpoint");
  }
  return out;
}

Status CheckpointController::OnRoundBoundary(
    const std::function<Result<std::string>()>& serialize) {
  ++boundaries_seen_;
  const bool crash_here =
      crash_at_boundary_ > 0 && boundaries_seen_ == crash_at_boundary_;
  const bool cadence_here = boundaries_seen_ % snapshot_every_ == 0;
  if (crash_here || cadence_here) {
    Result<std::string> snapshot = serialize();
    if (!snapshot.ok()) return snapshot.status();
    checkpoint_ = std::move(snapshot).value();
    has_checkpoint_ = true;
    ++snapshots_taken_;
  }
  if (crash_here) {
    crashed_ = true;
    return Status::Aborted(
        "chaos plan killed the run at round boundary " +
        std::to_string(boundaries_seen_) +
        "; resume from the last checkpoint");
  }
  return Status::OK();
}

}  // namespace crowdmax
