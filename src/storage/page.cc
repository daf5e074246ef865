#include "storage/page.h"

#include <algorithm>
#include <cstring>

namespace ariadne::storage {

namespace {

/// Column encodings. Provenance columns are dominated by vertex ids and
/// superstep counters (small, slowly varying ints) and by payload doubles;
/// the tags below cover those hot shapes and fall back to a tagged
/// per-value encoding for anything else.
enum ColumnTag : uint8_t {
  kColConst = 0,     ///< every row holds the same value (e.g. step columns)
  kColIntDelta = 1,  ///< all ints: zigzag start + zigzag deltas
  kColDouble = 2,    ///< all doubles: raw 8-byte little-endian
  kColMixed = 3,     ///< per-value kind tag + payload
};

enum SliceFormat : uint8_t {
  kSliceColumnar = 0,  ///< uniform arity, column-major runs
  kSliceRowMajor = 1,  ///< mixed arity fallback, row-major tagged values
};

// The encoder writes each slice through a raw cursor into a buffer sized
// by SliceBound, so no byte pays a std::string capacity check.

char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

char* PutZigzag(char* p, int64_t v) {
  return PutVarint(p, (static_cast<uint64_t>(v) << 1) ^
                          static_cast<uint64_t>(v >> 63));
}

char* PutDouble(char* p, double d) {
  std::memcpy(p, &d, sizeof(double));
  return p + sizeof(double);
}

char* PutCellTagged(char* p, const LayerSlice& slice, const Cell& c) {
  *p++ = static_cast<char>(c.tag);
  switch (c.tag) {
    case Value::Kind::kNull:
      return p;
    case Value::Kind::kInt:
      return PutZigzag(p, c.i);
    case Value::Kind::kDouble:
      return PutDouble(p, c.d);
    case Value::Kind::kString: {
      const std::string& str = slice.String(c);
      p = PutVarint(p, str.size());
      std::memcpy(p, str.data(), str.size());
      return p + str.size();
    }
    case Value::Kind::kDoubleVector: {
      const auto& vec = slice.DoubleVector(c);
      p = PutVarint(p, vec.size());
      for (double d : vec) p = PutDouble(p, d);
      return p;
    }
  }
  return p;
}

/// Upper bound on the encoded bytes of `slice`: at most 12 bytes of
/// column header (column tag, value tag, varint) per column and 11 per
/// cell, plus every side payload a cell references, plus the slice
/// header and one arity byte per row of a zero-arity slice.
size_t SliceBound(const LayerSlice& slice) {
  size_t bound = 32 + size_t{12} * slice.arity + 11 * slice.cells.size() +
                 slice.rows;
  if (!slice.side.empty()) {
    for (const Cell& c : slice.cells) {
      if (c.tag == Value::Kind::kString) {
        bound += slice.String(c).size();
      } else if (c.tag == Value::Kind::kDoubleVector) {
        bound += slice.DoubleVector(c).size() * sizeof(double);
      }
    }
  }
  return bound;
}

/// Value equality of two cells of one slice (LayerSlice::CellEquals),
/// with the inline kinds decided here.
bool SameCell(const LayerSlice& slice, const Cell& a, const Cell& b) {
  if (a.tag != b.tag) return false;
  switch (a.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return a.i == b.i;
    case Value::Kind::kDouble:
      return a.d == b.d;
    default:
      return slice.CellEquals(a, slice, b);
  }
}

char* PutColumn(char* p, const LayerSlice& slice, size_t col) {
  const size_t arity = slice.arity;
  const Cell* cells = slice.cells.data() + col;
  const size_t end = slice.cells.size();
  const Cell& first = cells[0];
  bool all_equal = true;
  bool all_int = first.tag == Value::Kind::kInt;
  bool all_double = first.tag == Value::Kind::kDouble;
  for (size_t i = arity; i + col < end; i += arity) {
    const Cell& c = cells[i];
    if (all_equal && !SameCell(slice, c, first)) all_equal = false;
    if (c.tag != first.tag) all_int = all_double = false;
  }
  if (all_equal && !SameCell(slice, first, first)) all_equal = false;  // NaN
  if (all_equal) {
    *p++ = static_cast<char>(kColConst);
    return PutCellTagged(p, slice, first);
  }
  if (all_int) {
    *p++ = static_cast<char>(kColIntDelta);
    int64_t prev = 0;
    for (size_t i = 0; i + col < end; i += arity) {
      p = PutZigzag(p, cells[i].i - prev);
      prev = cells[i].i;
    }
    return p;
  }
  if (all_double) {
    *p++ = static_cast<char>(kColDouble);
    for (size_t i = 0; i + col < end; i += arity) p = PutDouble(p, cells[i].d);
    return p;
  }
  *p++ = static_cast<char>(kColMixed);
  for (size_t i = 0; i + col < end; i += arity) {
    p = PutCellTagged(p, slice, cells[i]);
  }
  return p;
}

void AppendSlice(std::string* out, const LayerSlice& slice,
                 VertexId prev_vertex) {
  const size_t begin = out->size();
  out->resize(begin + SliceBound(slice));
  char* const base = out->data();
  char* p = base + begin;
  p = PutZigzag(p, slice.vertex - prev_vertex);
  p = PutVarint(p, slice.size());
  if (slice.arity == 0) {
    // Zero-arity rows have no columns to lay out.
    *p++ = static_cast<char>(kSliceRowMajor);
    for (size_t i = 0; i < slice.size(); ++i) p = PutVarint(p, 0);
  } else {
    *p++ = static_cast<char>(kSliceColumnar);
    p = PutVarint(p, slice.arity);
    for (size_t col = 0; col < slice.arity; ++col) {
      p = PutColumn(p, slice, col);
    }
  }
  out->resize(static_cast<size_t>(p - base));
}

Result<double> ReadDoubleRaw(ByteReader& reader) {
  double d;
  ARIADNE_RETURN_NOT_OK(reader.ReadRaw(&d, sizeof(double)));
  return d;
}

/// Reads one tagged value into a cell of `slice` (payloads into its side
/// store).
Result<Cell> ReadCellTagged(ByteReader& reader, LayerSlice& slice) {
  ARIADNE_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  switch (static_cast<Value::Kind>(kind)) {
    case Value::Kind::kNull:
      return Cell();
    case Value::Kind::kInt: {
      ARIADNE_ASSIGN_OR_RETURN(int64_t v, reader.ReadZigzag());
      return Cell::Int(v);
    }
    case Value::Kind::kDouble: {
      ARIADNE_ASSIGN_OR_RETURN(double v, ReadDoubleRaw(reader));
      return Cell::Double(v);
    }
    case Value::Kind::kString: {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
      if (n > reader.remaining()) {
        return Status::OutOfRange("string length " + std::to_string(n) +
                                  " exceeds payload");
      }
      std::string str(n, '\0');
      ARIADNE_RETURN_NOT_OK(reader.ReadRaw(str.data(), n));
      return slice.Encode(Value(std::move(str)));
    }
    case Value::Kind::kDoubleVector: {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
      if (n > reader.remaining() / sizeof(double)) {
        return Status::OutOfRange("vector length " + std::to_string(n) +
                                  " exceeds payload");
      }
      std::vector<double> vec(n);
      if (n > 0) {
        ARIADNE_RETURN_NOT_OK(reader.ReadRaw(vec.data(), n * sizeof(double)));
      }
      return slice.Encode(Value(std::move(vec)));
    }
  }
  return Status::ParseError("unknown value kind tag " + std::to_string(kind));
}

/// Decodes column `col` of a columnar slice whose cells are allocated.
Status ReadColumn(ByteReader& reader, LayerSlice& slice, size_t col) {
  ARIADNE_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadByte());
  const size_t arity = slice.arity;
  const size_t end = slice.cells.size();
  Cell* cells = slice.cells.data() + col;
  switch (tag) {
    case kColConst: {
      ARIADNE_ASSIGN_OR_RETURN(Cell c, ReadCellTagged(reader, slice));
      // Every row shares the one side entry of a const payload column.
      for (size_t i = 0; i + col < end; i += arity) cells[i] = c;
      return Status::OK();
    }
    case kColIntDelta: {
      int64_t prev = 0;
      for (size_t i = 0; i + col < end; i += arity) {
        ARIADNE_ASSIGN_OR_RETURN(int64_t delta, reader.ReadZigzag());
        prev += delta;
        cells[i] = Cell::Int(prev);
      }
      return Status::OK();
    }
    case kColDouble: {
      for (size_t i = 0; i + col < end; i += arity) {
        ARIADNE_ASSIGN_OR_RETURN(double d, ReadDoubleRaw(reader));
        cells[i] = Cell::Double(d);
      }
      return Status::OK();
    }
    case kColMixed: {
      for (size_t i = 0; i + col < end; i += arity) {
        ARIADNE_ASSIGN_OR_RETURN(cells[i], ReadCellTagged(reader, slice));
      }
      return Status::OK();
    }
    default:
      return Status::ParseError("unknown column tag " + std::to_string(tag));
  }
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendZigzag(std::string* out, int64_t v) {
  AppendVarint(out, (static_cast<uint64_t>(v) << 1) ^
                        static_cast<uint64_t>(v >> 63));
}

uint64_t Fnv1a(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Checksum64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull ^ (data.size() * 0x9e3779b97f4a7c15ull);
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

void AppendCheckedFrame(std::string_view payload, std::string* out) {
  const uint64_t len = payload.size();
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(payload);
  const uint64_t sum = Checksum64(payload);
  out->append(reinterpret_cast<const char*>(&sum), sizeof(sum));
}

Result<std::string_view> ParseCheckedFrame(std::string_view data,
                                           size_t* offset) {
  const size_t start = *offset;
  if (start > data.size() ||
      data.size() - start < kCheckedFrameOverhead) {
    return Status::ParseError("truncated frame header at byte " +
                              std::to_string(start));
  }
  uint64_t len;
  std::memcpy(&len, data.data() + start, sizeof(len));
  if (len > data.size() - start - kCheckedFrameOverhead) {
    return Status::ParseError("frame length " + std::to_string(len) +
                              " at byte " + std::to_string(start) +
                              " exceeds remaining bytes");
  }
  const std::string_view payload = data.substr(start + 8, len);
  uint64_t want;
  std::memcpy(&want, data.data() + start + 8 + len, sizeof(want));
  if (Checksum64(payload) != want) {
    return Status::ParseError("frame checksum mismatch at byte " +
                              std::to_string(start));
  }
  *offset = start + kCheckedFrameOverhead + len;
  return payload;
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= size_) {
      return Status::OutOfRange("varint runs past end of payload");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Status::ParseError("varint longer than 10 bytes");
}

Result<int64_t> ByteReader::ReadZigzag() {
  ARIADNE_ASSIGN_OR_RETURN(uint64_t v, ReadVarint());
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Result<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= size_) return Status::OutOfRange("read past end of payload");
  return static_cast<uint8_t>(data_[pos_++]);
}

Status ByteReader::ReadRaw(void* p, size_t n) {
  if (n > remaining()) {
    return Status::OutOfRange("raw read past end of payload");
  }
  std::memcpy(p, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

std::vector<Page> EncodeLayer(const Layer& layer, size_t page_size) {
  std::vector<Page> pages;
  Page* open = nullptr;
  for (const LayerSlice& slice : layer.slices) {
    if (slice.empty()) continue;
    const uint32_t rel = static_cast<uint32_t>(slice.rel);
    if (open == nullptr || open->header.rel != rel ||
        open->payload.size() >= page_size) {
      pages.emplace_back();
      open = &pages.back();
      open->header.rel = rel;
      open->header.first_vertex = slice.vertex;
      open->header.last_vertex = slice.vertex;
    }
    // Vertex ids delta-encode against the previous slice of the page;
    // canonical layers are sorted per relation, so deltas stay tiny.
    const VertexId prev =
        open->header.slice_count == 0 ? 0 : open->header.last_vertex;
    AppendSlice(&open->payload, slice, prev);
    open->header.last_vertex = slice.vertex;
    ++open->header.slice_count;
    open->header.raw_bytes += slice.ByteSize();
  }
  return pages;
}

Status DecodePage(const Page& page, Layer* layer,
                  std::span<const int> arities) {
  const uint32_t rel = page.header.rel;
  if (!arities.empty() && rel >= arities.size()) {
    return Status::ParseError("page relation id " + std::to_string(rel) +
                              " outside the schema (" +
                              std::to_string(arities.size()) +
                              " relations)");
  }
  ByteReader reader(page.payload);
  VertexId prev_vertex = 0;
  // Grow geometrically across the pages of one layer; the count is only
  // a hint (a corrupt one fails below, before any slice is trusted).
  const size_t want = layer->slices.size() +
                      std::min<size_t>(page.header.slice_count,
                                       page.payload.size());
  if (want > layer->slices.capacity()) {
    layer->slices.reserve(std::max(want, 2 * layer->slices.capacity()));
  }
  for (uint32_t s = 0; s < page.header.slice_count; ++s) {
    ARIADNE_ASSIGN_OR_RETURN(int64_t delta, reader.ReadZigzag());
    const VertexId vertex = prev_vertex + delta;
    prev_vertex = vertex;
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_tuples, reader.ReadVarint());
    // Distinct tuples need at least one varying column, so a tuple costs
    // ~1 payload byte; the x64 slack covers const-heavy slices while
    // still rejecting corrupt counts before they drive allocations.
    if (n_tuples == 0 || n_tuples / 64 > reader.remaining()) {
      return Status::ParseError("slice tuple count " +
                                std::to_string(n_tuples) +
                                " exceeds payload at offset " +
                                std::to_string(reader.pos()));
    }
    ARIADNE_ASSIGN_OR_RETURN(uint8_t format, reader.ReadByte());
    LayerSlice slice;
    slice.rel = static_cast<int>(rel);
    slice.vertex = vertex;
    if (format == kSliceRowMajor) {
      // Written for zero-arity rows; each row repeats its arity, and a
      // slice holds one arity, so a row that differs is malformed.
      for (uint64_t i = 0; i < n_tuples; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadVarint());
        if (arity > reader.remaining()) {
          return Status::ParseError("tuple arity exceeds payload");
        }
        if (i == 0) {
          slice.arity = static_cast<uint32_t>(arity);
        } else if (arity != slice.arity) {
          return Status::ParseError(
              "row-major slice mixes arities " +
              std::to_string(slice.arity) + " and " + std::to_string(arity) +
              " at offset " + std::to_string(reader.pos()));
        }
        Cell* out = slice.AddRow();
        for (uint64_t a = 0; a < arity; ++a) {
          ARIADNE_ASSIGN_OR_RETURN(out[a], ReadCellTagged(reader, slice));
        }
      }
    } else if (format == kSliceColumnar) {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadVarint());
      if (arity > reader.remaining() ||
          (arity != 0 && n_tuples > (uint64_t{1} << 31) / arity)) {
        return Status::ParseError("slice arity " + std::to_string(arity) +
                                  " exceeds payload at offset " +
                                  std::to_string(reader.pos()));
      }
      slice.arity = static_cast<uint32_t>(arity);
      slice.rows = static_cast<uint32_t>(n_tuples);
      slice.cells.resize(n_tuples * arity);
      for (uint64_t col = 0; col < arity; ++col) {
        ARIADNE_RETURN_NOT_OK(ReadColumn(reader, slice, col));
      }
    } else {
      return Status::ParseError("unknown slice format " +
                                std::to_string(format) + " at offset " +
                                std::to_string(reader.pos()));
    }
    if (!arities.empty() && static_cast<int>(slice.arity) != arities[rel]) {
      return Status::ParseError(
          "slice of vertex " + std::to_string(vertex) + " has arity " +
          std::to_string(slice.arity) + ", relation " + std::to_string(rel) +
          " has schema arity " + std::to_string(arities[rel]));
    }
    layer->Add(std::move(slice));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError(
        std::to_string(reader.remaining()) +
        " trailing byte(s) after last slice of page payload");
  }
  return Status::OK();
}

void SerializePage(const Page& page, std::string* out) {
  AppendU32(out, kPageMagic);
  AppendU32(out, page.header.rel);
  AppendI64(out, page.header.first_vertex);
  AppendI64(out, page.header.last_vertex);
  AppendU32(out, page.header.slice_count);
  AppendU32(out, static_cast<uint32_t>(page.payload.size()));
  AppendU64(out, page.header.raw_bytes);
  AppendU64(out, Fnv1a(page.payload));
  out->append(page.payload);
}

Result<Page> ParsePage(std::string_view data, size_t* offset) {
  const size_t start = *offset;
  auto at = [&](const char* what) {
    return Status::ParseError(std::string(what) + " at offset " +
                              std::to_string(start));
  };
  if (data.size() - start < kPageWireHeaderBytes) {
    return at("truncated page header");
  }
  ByteReader reader(data.data() + start, data.size() - start);
  uint32_t magic, rel, slice_count, payload_bytes;
  int64_t first_vertex, last_vertex;
  uint64_t raw_bytes, checksum;
  (void)reader.ReadRaw(&magic, sizeof(magic));
  (void)reader.ReadRaw(&rel, sizeof(rel));
  (void)reader.ReadRaw(&first_vertex, sizeof(first_vertex));
  (void)reader.ReadRaw(&last_vertex, sizeof(last_vertex));
  (void)reader.ReadRaw(&slice_count, sizeof(slice_count));
  (void)reader.ReadRaw(&payload_bytes, sizeof(payload_bytes));
  (void)reader.ReadRaw(&raw_bytes, sizeof(raw_bytes));
  (void)reader.ReadRaw(&checksum, sizeof(checksum));
  if (magic != kPageMagic) return at("bad page magic");
  if (payload_bytes > reader.remaining()) return at("truncated page payload");
  std::string_view payload(data.data() + start + kPageWireHeaderBytes,
                           payload_bytes);
  if (Fnv1a(payload) != checksum) return at("page checksum mismatch");
  Page page;
  page.header.rel = rel;
  page.header.first_vertex = first_vertex;
  page.header.last_vertex = last_vertex;
  page.header.slice_count = slice_count;
  page.header.raw_bytes = raw_bytes;
  page.payload.assign(payload);
  *offset = start + kPageWireHeaderBytes + payload_bytes;
  return page;
}

void WriteLayerFrame(const Layer& layer, BinaryWriter& writer) {
  const std::vector<Page> pages = EncodeLayer(layer, kDefaultPageSize);
  std::string blob;
  for (const Page& page : pages) SerializePage(page, &blob);
  writer.WriteI64(layer.step);
  writer.WriteU64(pages.size());
  writer.WriteString(blob);
}

namespace {

/// The fixed fields of a layer frame, before any page is parsed.
struct LayerFrame {
  int64_t step = 0;
  uint64_t n_pages = 0;
  std::string blob;
};

Result<LayerFrame> ReadLayerFrameFields(BinaryReader& reader) {
  LayerFrame frame;
  ARIADNE_ASSIGN_OR_RETURN(frame.step, reader.ReadI64());
  ARIADNE_ASSIGN_OR_RETURN(frame.n_pages, reader.ReadU64());
  ARIADNE_ASSIGN_OR_RETURN(frame.blob, reader.ReadString());
  return frame;
}

}  // namespace

Result<Layer> ReadLayerFrame(BinaryReader& reader, const std::string& where,
                             std::span<const int> arities) {
  const std::string at =
      where + " at offset " + std::to_string(reader.pos());
  auto frame = ReadLayerFrameFields(reader);
  if (!frame.ok()) return frame.status().WithContext("layer frame in " + at);
  const std::string& blob = frame->blob;
  const size_t blob_begin = reader.pos() - blob.size();
  if (frame->n_pages > blob.size() / kPageWireHeaderBytes) {
    return Status::ParseError("page count " + std::to_string(frame->n_pages) +
                              " exceeds layer blob in " + at);
  }
  Layer layer;
  layer.step = static_cast<Superstep>(frame->step);
  size_t offset = 0;
  for (uint64_t p = 0; p < frame->n_pages; ++p) {
    const size_t page_begin = offset;
    auto page = ParsePage(blob, &offset);
    if (!page.ok()) return page.status().WithContext(where);
    Status decoded = DecodePage(*page, &layer, arities);
    if (!decoded.ok()) {
      return decoded.WithContext(where + " page " + std::to_string(p) +
                                 " at offset " +
                                 std::to_string(blob_begin + page_begin));
    }
  }
  if (offset != blob.size()) {
    return Status::ParseError(std::to_string(blob.size() - offset) +
                              " trailing byte(s) in layer blob of " + at);
  }
  return layer;
}

}  // namespace ariadne::storage
