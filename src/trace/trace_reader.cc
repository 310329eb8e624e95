#include "src/trace/trace_reader.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "src/base/check.h"

namespace firmament {

namespace {

// Splits `line` into comma-separated fields. Returns the field count; writes
// at most `max_fields` views. The trace schema has no quoting or embedded
// commas, so a plain split is exact.
size_t SplitCsv(std::string_view line, std::string_view* fields, size_t max_fields) {
  size_t count = 0;
  size_t start = 0;
  for (;;) {
    size_t comma = line.find(',', start);
    std::string_view field = comma == std::string_view::npos
                                 ? line.substr(start)
                                 : line.substr(start, comma - start);
    if (count < max_fields) {
      fields[count] = field;
    }
    ++count;
    if (comma == std::string_view::npos) {
      return count;
    }
    start = comma + 1;
  }
}

// Empty fields parse as 0 (the trace leaves optional columns blank). Returns
// false only on genuinely unparseable content.
bool ParseU64(std::string_view field, uint64_t* out) {
  if (field.empty()) {
    *out = 0;
    return true;
  }
  auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

bool ParseI32(std::string_view field, int32_t* out) {
  if (field.empty()) {
    *out = 0;
    return true;
  }
  auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

bool ParseF64(std::string_view field, double* out) {
  if (field.empty()) {
    *out = 0;
    return true;
  }
  // strtod on a bounded copy: std::from_chars<double> is not available on
  // every libstdc++ this builds against.
  char buf[64];
  if (field.size() >= sizeof(buf)) {
    return false;
  }
  std::memcpy(buf, field.data(), field.size());
  buf[field.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + field.size();
}

}  // namespace

// --- LineChunkReader --------------------------------------------------------

LineChunkReader::LineChunkReader(const std::string& path, size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {
  file_ = std::fopen(path.c_str(), "rb");
}

LineChunkReader::~LineChunkReader() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool LineChunkReader::NextLine(std::string_view* line) {
  if (file_ == nullptr) {
    return false;
  }
  for (;;) {
    size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      *line = std::string_view(buffer_).substr(pos_, newline - pos_);
      pos_ = newline + 1;
      return true;
    }
    if (eof_) {
      if (pos_ < buffer_.size()) {
        // Unterminated tail: the file was cut mid-record.
        truncated_tail_ = true;
        pos_ = buffer_.size();
      }
      return false;
    }
    // Drop the consumed prefix, then pull the next chunk.
    buffer_.erase(0, pos_);
    pos_ = 0;
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + chunk_bytes_);
    size_t got = std::fread(&buffer_[old_size], 1, chunk_bytes_, file_);
    buffer_.resize(old_size + got);
    bytes_consumed_ += got;
    if (buffer_.size() > max_buffered_) {
      max_buffered_ = buffer_.size();
    }
    if (got < chunk_bytes_) {
      eof_ = true;
    }
  }
}

// --- TraceTableReader -------------------------------------------------------

TraceTableReader::TraceTableReader(TraceTable table, const std::string& path,
                                   size_t chunk_bytes)
    : table_(table), reader_(path, chunk_bytes) {}

bool TraceTableReader::ParseLine(std::string_view line, TraceEvent* event) {
  // 13 columns is the widest layout (task_events); extra columns beyond the
  // schema are tolerated and ignored.
  std::string_view fields[13] = {};
  size_t count = SplitCsv(line, fields, 13);
  *event = TraceEvent{};
  event->table = table_;
  uint64_t time = 0;
  if (!ParseU64(fields[0], &time)) {
    return false;
  }
  event->time = time;
  if (table_ == TraceTable::kMachineEvents) {
    // time, machine id, event type, platform id, cpu capacity, ram capacity
    if (count < 3) {
      return false;
    }
    return ParseU64(fields[1], &event->machine_id) &&
           ParseI32(fields[2], &event->code) &&
           ParseF64(count > 4 ? fields[4] : std::string_view(), &event->cpu_capacity) &&
           ParseF64(count > 5 ? fields[5] : std::string_view(), &event->ram_capacity);
  }
  // time, missing-info, job id, task index, machine id, event type, user,
  // scheduling class, priority, cpu request, ram request, disk, constraint
  if (count < 6) {
    return false;
  }
  uint64_t task_index = 0;
  if (!ParseU64(fields[2], &event->job_id) || !ParseU64(fields[3], &task_index) ||
      !ParseU64(fields[4], &event->machine_id) || !ParseI32(fields[5], &event->code)) {
    return false;
  }
  event->task_index = static_cast<uint32_t>(task_index);
  return ParseI32(count > 7 ? fields[7] : std::string_view(), &event->scheduling_class) &&
         ParseI32(count > 8 ? fields[8] : std::string_view(), &event->priority) &&
         ParseF64(count > 9 ? fields[9] : std::string_view(), &event->cpu_request) &&
         ParseF64(count > 10 ? fields[10] : std::string_view(), &event->ram_request);
}

bool TraceTableReader::Next(TraceEvent* event) {
  std::string_view line;
  while (reader_.NextLine(&line)) {
    if (line.empty()) {
      continue;
    }
    ++stats_.lines;
    if (!ParseLine(line, event)) {
      ++stats_.malformed_lines;
      continue;
    }
    const int32_t max_code = table_ == TraceTable::kMachineEvents
                                 ? static_cast<int32_t>(kMachineUpdate)
                                 : static_cast<int32_t>(kTaskUpdateRunning);
    if (event->code < 0 || event->code > max_code) {
      ++stats_.unknown_event_codes;
      continue;
    }
    if (saw_event_ && event->time < last_time_) {
      // The trace contract is per-table timestamp order; a regression is
      // corruption (or an unsorted concatenation) — skip it so the merged
      // stream stays monotonic.
      ++stats_.out_of_order_events;
      continue;
    }
    saw_event_ = true;
    last_time_ = event->time;
    ++stats_.events;
    return true;
  }
  return false;
}

const TraceParseStats& TraceTableReader::stats() const {
  stats_.truncated_tail_lines = reader_.truncated_tail() ? 1 : 0;
  stats_.bytes = reader_.bytes_consumed();
  stats_.max_buffered_bytes = reader_.max_buffered_bytes();
  return stats_;
}

// --- MergedTraceStream ------------------------------------------------------

MergedTraceStream::MergedTraceStream(std::vector<TraceTableReader*> readers)
    : readers_(std::move(readers)), heads_(readers_.size()) {
  for (size_t i = 0; i < readers_.size(); ++i) {
    heads_[i].valid = readers_[i]->Next(&heads_[i].event);
  }
}

bool MergedTraceStream::Next(TraceEvent* event) {
  size_t best = heads_.size();
  for (size_t i = 0; i < heads_.size(); ++i) {
    if (!heads_[i].valid) {
      continue;
    }
    // Strict "better than" keeps reader order on full ties, and
    // TraceEventOrder puts machine events first at equal timestamps.
    if (best == heads_.size() || TraceEventOrder(heads_[i].event, heads_[best].event)) {
      best = i;
    }
  }
  if (best == heads_.size()) {
    return false;
  }
  *event = heads_[best].event;
  heads_[best].valid = readers_[best]->Next(&heads_[best].event);
  return true;
}

TraceParseStats MergedTraceStream::stats() const {
  TraceParseStats total;
  for (const TraceTableReader* reader : readers_) {
    total.MergeFrom(reader->stats());
  }
  return total;
}

}  // namespace firmament
