// trace_pack: convert, verify and inspect dlpsim trace files.
//
//   trace_pack --pack IN OUT     convert IN (either format) to DLPT packed
//   trace_pack --unpack IN OUT   convert IN (either format) to canonical text
//   trace_pack --verify FILE...  re-read every record of each file (packed:
//                                all CRCs, lengths, the footer count);
//                                exit 1 on the first corrupt file
//   trace_pack --stat FILE       one-line-per-field summary: format,
//                                records, sizes, blocks, compression ratio,
//                                content ref (trace/hash.h)
//   trace_pack --record APP OUT  run workload APP (Table 2 abbreviation)
//                                on the baseline GPU model with a
//                                TraceRecorder attached and stream its
//                                L1D access trace into OUT as packed
//                                DLPT (--scale sets the iteration scale,
//                                default 0.02) -- the "record once" half
//                                of the record/replay split, and how the
//                                committed tests/golden/traces/ fixtures
//                                were produced
//
// Options:
//   --scale S   iteration scale for --record (default 0.02)
//   --block N   records per packed block (default DLPSIM_TRACE_BLOCK or
//               4096, the canonical block size)
//   --meta STR  metadata text stored in the packed header; when IN is
//               already packed its metadata is carried over by default
//
// Both conversions stream (O(block) memory), so packing a multi-GB trace
// is safe. --unpack writes *canonical* text (see trace/record.h), so
// text -> pack -> unpack canonicalizes formatting but never changes the
// record sequence: unpack(pack(t)) == canonicalize(t), byte for byte --
// pinned by tests/trace/roundtrip_test.cpp.
//
// Environment knobs (reads go through dlpsim::env):
//   DLPSIM_TRACE_BLOCK - default --block value
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/simulator.h"
#include "sim/config.h"
#include "sim/env.h"
#include "sim/parse.h"
#include "trace/format.h"
#include "trace/hash.h"
#include "trace/record.h"
#include "trace/recorder.h"
#include "trace/source.h"
#include "trace/writer.h"
#include "workloads/registry.h"

namespace {

using namespace dlpsim;

int Usage() {
  std::cerr <<
      "usage: trace_pack --pack IN OUT [--block N] [--meta STR]\n"
      "       trace_pack --unpack IN OUT\n"
      "       trace_pack --verify FILE...\n"
      "       trace_pack --stat FILE\n"
      "       trace_pack --record APP OUT [--scale S] [--block N]\n";
  return 2;
}

/// Opens IN, failing loudly (every mode starts this way).
std::unique_ptr<trace::TraceSource> Open(const std::string& path) {
  TraceParseError err;
  auto src = trace::OpenTraceFile(path, &err);
  if (src == nullptr) {
    std::cerr << "trace_pack: " << path << ": " << err.ToString() << '\n';
  }
  return src;
}

int Pack(const std::string& in_path, const std::string& out_path,
         std::uint32_t block_records, const std::string* meta_flag) {
  auto src = Open(in_path);
  if (src == nullptr) return 1;

  // Default metadata: carried over from a packed input, empty for text.
  std::string meta;
  if (meta_flag != nullptr) {
    meta = *meta_flag;
  } else if (auto* packed = dynamic_cast<trace::PackedTraceSource*>(src.get())) {
    meta = packed->meta();
    if (!src->ok()) {
      std::cerr << "trace_pack: " << in_path << ": " << src->error().ToString()
                << '\n';
      return 1;
    }
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "trace_pack: cannot write " << out_path << '\n';
    return 1;
  }
  trace::PackedTraceWriter writer(out, meta, block_records);
  TraceAccess a;
  while (src->Next(&a)) writer.Append(a);
  if (!src->ok()) {
    std::cerr << "trace_pack: " << in_path << ": " << src->error().ToString()
              << '\n';
    return 1;
  }
  if (!writer.Finish() || !out.flush()) {
    std::cerr << "trace_pack: " << out_path << ": write failed\n";
    return 1;
  }
  std::cerr << "trace_pack: packed " << writer.appended() << " records -> "
            << out_path << '\n';
  return 0;
}

int Unpack(const std::string& in_path, const std::string& out_path) {
  auto src = Open(in_path);
  if (src == nullptr) return 1;
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "trace_pack: cannot write " << out_path << '\n';
    return 1;
  }
  TraceAccess a;
  std::string buf;
  std::uint64_t n = 0;
  while (src->Next(&a)) {
    trace::AppendCanonicalLine(a, &buf);
    ++n;
    if (buf.size() >= 64 * 1024) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  if (!src->ok()) {
    std::cerr << "trace_pack: " << in_path << ": " << src->error().ToString()
              << '\n';
    return 1;
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out.flush()) {
    std::cerr << "trace_pack: " << out_path << ": write failed\n";
    return 1;
  }
  std::cerr << "trace_pack: unpacked " << n << " records -> " << out_path
            << '\n';
  return 0;
}

int Record(const std::string& app, const std::string& out_path, double scale,
           std::uint32_t block_records) {
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "trace_pack: cannot write " << out_path << '\n';
    return 1;
  }
  try {
    Workload wl = MakeWorkload(app, scale);
    GpuSimulator gpu(SimConfig::Baseline16KB(), wl.program.get(),
                     wl.warps_per_sm);
    std::string meta = "app " + app + "\nscale ";
    {
      std::ostringstream ms;
      ms << scale;
      meta += ms.str() + "\nconfig base\n";
    }
    trace::PackedTraceWriter writer(out, meta, block_records);
    trace::TraceRecorder rec(&writer);
    gpu.AttachObserver(&rec);
    gpu.Run();
    if (!writer.Finish() || !out.flush()) {
      std::cerr << "trace_pack: " << out_path << ": write failed\n";
      return 1;
    }
    std::cerr << "trace_pack: recorded " << rec.recorded() << " accesses of "
              << app << " @ scale " << scale << " -> " << out_path << '\n';
  } catch (const std::exception& e) {
    std::cerr << "trace_pack: record " << app << ": " << e.what() << '\n';
    return 1;
  }
  return 0;
}

int Verify(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    auto src = Open(path);
    if (src == nullptr) {
      ++failures;
      continue;
    }
    TraceAccess a;
    while (src->Next(&a)) {
    }
    if (!src->ok()) {
      std::cerr << "trace_pack: " << path << ": " << src->error().ToString()
                << '\n';
      ++failures;
      continue;
    }
    std::cout << path << ": ok, " << src->delivered() << " records\n";
  }
  return failures == 0 ? 0 : 1;
}

/// Packed-stream shape without decompressing: walks the header and block
/// headers only. Returns false on a malformed layout (--stat still
/// prints what it can; --verify is the integrity check).
struct PackedShape {
  std::uint64_t blocks = 0;
  std::uint64_t comp_bytes = 0;   // compressed payload bytes
  std::uint64_t raw_bytes = 0;    // encoded (pre-compression) bytes
  std::uint64_t meta_bytes = 0;
  std::uint32_t version = 0;
};

bool ReadPackedShape(const std::string& path, PackedShape* shape) {
  std::ifstream in(path, std::ios::binary);
  char hdr[trace::kHeaderBytes];
  if (!in.read(hdr, sizeof(hdr))) return false;
  shape->version = trace::GetU32(hdr + 4);
  shape->meta_bytes = trace::GetU32(hdr + 8);
  in.seekg(static_cast<std::streamoff>(shape->meta_bytes), std::ios::cur);
  char bh[trace::kBlockHeaderBytes];
  for (;;) {
    if (!in.read(bh, sizeof(bh))) return false;
    const std::uint32_t comp_len = trace::GetU32(bh);
    if (comp_len == 0) return true;  // footer
    shape->blocks += 1;
    shape->comp_bytes += comp_len;
    shape->raw_bytes += trace::GetU32(bh + 4);
    in.seekg(static_cast<std::streamoff>(comp_len), std::ios::cur);
  }
}

int Stat(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, sizeof(magic));
  const bool packed = probe.gcount() == 4 &&
                      std::string_view(magic, 4) ==
                          std::string_view(trace::kMagic, 4);
  probe.seekg(0, std::ios::end);
  const auto file_bytes = probe.tellg();
  probe.close();

  auto src = Open(path);
  if (src == nullptr) return 1;
  TraceAccess a;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  while (src->Next(&a)) {
    (a.type == AccessType::kStore ? stores : loads) += 1;
  }
  if (!src->ok()) {
    std::cerr << "trace_pack: " << path << ": " << src->error().ToString()
              << '\n';
    return 1;
  }

  TraceParseError herr;
  const std::string ref = trace::TraceFileRef(path, &herr);

  std::cout << "file " << path << '\n'
            << "format " << (packed ? "packed" : "text") << '\n'
            << "bytes " << file_bytes << '\n'
            << "records " << src->delivered() << '\n'
            << "loads " << loads << '\n'
            << "stores " << stores << '\n';
  if (packed) {
    PackedShape shape;
    if (ReadPackedShape(path, &shape)) {
      std::cout << "version " << shape.version << '\n'
                << "meta_bytes " << shape.meta_bytes << '\n'
                << "blocks " << shape.blocks << '\n'
                << "encoded_bytes " << shape.raw_bytes << '\n'
                << "compressed_bytes " << shape.comp_bytes << '\n';
    }
  }
  // Size of the equivalent canonical text, for a format-independent
  // compression figure: canonical_bytes / file bytes.
  std::uint64_t text_bytes = 0;
  {
    auto src2 = Open(path);
    if (src2 != nullptr) {
      std::string line;
      while (src2->Next(&a)) {
        line.clear();
        trace::AppendCanonicalLine(a, &line);
        text_bytes += line.size();
      }
    }
  }
  std::cout << "canonical_text_bytes " << text_bytes << '\n';
  if (packed && file_bytes > 0 && text_bytes > 0) {
    // Fixed-point x100 so the output never depends on float formatting.
    const std::uint64_t centi =
        text_bytes * 100 / static_cast<std::uint64_t>(file_bytes);
    std::cout << "text_to_packed_ratio " << centi / 100 << '.'
              << (centi % 100 < 10 ? "0" : "") << centi % 100 << '\n';
  }
  if (!ref.empty()) std::cout << "content_ref " << ref << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::vector<std::string> paths;
  std::uint32_t block_records = static_cast<std::uint32_t>(
      env::U64("DLPSIM_TRACE_BLOCK", trace::kCanonicalBlockRecords));
  std::string meta;
  bool have_meta = false;
  double scale = 0.02;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "trace_pack: " << what << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--pack" || a == "--unpack" || a == "--verify" || a == "--stat" ||
        a == "--record") {
      if (!mode.empty()) return Usage();
      mode = a;
    } else if (a == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return 2;
      if (!ParseScale(v, &scale)) {
        std::cerr << "trace_pack: --scale: bad value '" << v << "'\n";
        return Usage();
      }
    } else if (a == "--block") {
      const char* v = next("--block");
      if (v == nullptr) return 2;
      if (!ParseUnsigned(v, &block_records)) {
        std::cerr << "trace_pack: --block: bad value '" << v << "'\n";
        return Usage();
      }
      if (block_records == 0) {
        std::cerr << "trace_pack: --block must be >= 1\n";
        return 2;
      }
    } else if (a == "--meta") {
      const char* v = next("--meta");
      if (v == nullptr) return 2;
      meta = v;
      have_meta = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "trace_pack: unknown flag " << a << '\n';
      return Usage();
    } else {
      paths.push_back(a);
    }
  }

  if (mode == "--pack") {
    if (paths.size() != 2) return Usage();
    return Pack(paths[0], paths[1], block_records, have_meta ? &meta : nullptr);
  }
  if (mode == "--unpack") {
    if (paths.size() != 2) return Usage();
    return Unpack(paths[0], paths[1]);
  }
  if (mode == "--verify") {
    if (paths.empty()) return Usage();
    return Verify(paths);
  }
  if (mode == "--stat") {
    if (paths.size() != 1) return Usage();
    return Stat(paths[0]);
  }
  if (mode == "--record") {
    if (paths.size() != 2) return Usage();
    return Record(paths[0], paths[1], scale, block_records);
  }
  return Usage();
}
