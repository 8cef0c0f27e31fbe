#include "core/artifact.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "bitpack/compress.hpp"
#include "core/binary_conv.hpp"
#include "core/dense.hpp"
#include "core/engine.hpp"
#include "core/float_conv.hpp"
#include "core/input_conv.hpp"
#include "core/pooling.hpp"
#include "core/wire.hpp"

namespace phonebit::artifact {

namespace {

using core::ActivationSlot;
using core::BlobDesc;
using core::BlobKind;
using core::EngineOptions;
using core::KernelVariant;
using core::Layer;
using core::Network;
using core::PlanStep;
using core::ScratchNeed;
using core::wire::ByteReader;
using core::wire::ByteWriter;
using core::wire::LayerKind;  // shared with the .pbm format — one numbering

/// Upper bound on any serialized count (layers, steps, slots): far above
/// every real network, low enough that a corrupted count field fails fast
/// instead of driving a giant loop.
constexpr std::uint32_t kMaxCount = 65536;

[[noreturn]] void fail_at(const std::string& path, const char* section,
                          std::int64_t offset, const std::string& what) {
  std::ostringstream os;
  os << "artifact '" << path << "': " << what << " (section '" << section
     << "', byte offset " << offset << ")";
  throw InvalidArgument(os.str());
}

/// Reader whose failures throw InvalidArgument prefixed with the path (the
/// reader itself appends the section + byte offset).
ByteReader make_reader(const std::vector<std::uint8_t>& buf,
                       const std::string& path) {
  return ByteReader(buf.data(), buf.size(), [path](const std::string& msg) {
    throw InvalidArgument("artifact '" + path + "': " + msg);
  });
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  return core::wire::read_file(path, [](const std::string& msg) {
    throw InvalidArgument("artifact: " + msg);
  });
}

/// Runs `fn` — a LAYER CONSTRUCTOR call, never a reader call — converting
/// the PhoneBit exception a constructor PB_CHECK throws (which has no file
/// context) into a reader failure carrying the section and byte offset.
/// Reader methods must NOT be routed through this: their failures already
/// carry section + offset, and re-wrapping would stack a second, wrong
/// offset onto the message.
template <typename Fn>
auto contextualized(ByteReader& r, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error& e) {
    r.fail(e.what());
  }
}

bool read_bool(ByteReader& r) {
  const auto v = r.pod<std::uint8_t>();
  if (v > 1) r.fail("corrupt boolean flag");
  return v != 0;
}

bitpack::PackWidth read_pack_width(ByteReader& r) {
  const auto bits = r.pod<std::uint32_t>();
  switch (bits) {
    case 8: return bitpack::PackWidth::k8;
    case 16: return bitpack::PackWidth::k16;
    case 32: return bitpack::PackWidth::k32;
    case 64: return bitpack::PackWidth::k64;
    case 128: return bitpack::PackWidth::k128;
    case 256: return bitpack::PackWidth::k256;
    case 512: return bitpack::PackWidth::k512;
    case 1024: return bitpack::PackWidth::k1024;
    default: r.fail("invalid pack width " + std::to_string(bits) + " bits");
  }
}

// --- blob descriptors ------------------------------------------------------

void write_blob_desc(ByteWriter& w, const BlobDesc& d) {
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(d.kind));
  w.shape(d.shape);
}

/// `materialized`: the descriptor must describe a real blob (positive dims).
/// The only non-materialized descriptor in the format is the fused_mid of an
/// unfused step, which is a placeholder.
BlobDesc read_blob_desc(ByteReader& r, bool materialized) {
  const auto kind = r.pod<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(BlobKind::kPacked)) {
    r.fail("invalid blob kind " + std::to_string(kind));
  }
  BlobDesc d;
  d.kind = static_cast<BlobKind>(kind);
  d.shape = materialized ? r.positive_shape() : r.shape();
  return d;
}

// --- network section -------------------------------------------------------

/// Mode-1 BinaryConv2d weight storage (format v4, DESIGN.md §12): the
/// dictionary/index/delta factorization instead of the raw packed words.
/// Framed exactly as compressed_encoded_bytes() accounts it, after the
/// filter-bank shape.
void write_compressed_bank(ByteWriter& w,
                           const bitpack::CompressedFilterBank& bank) {
  w.shape(bank.filter_shape());
  w.pod<std::int64_t>(bank.k_words());
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(bank.unique_rows()));
  w.raw(bank.dict().data(), bank.dict().size() * 8);
  for (const std::uint32_t idx : bank.row_index()) w.pod<std::uint32_t>(idx);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(bank.deltas().size()));
  for (const std::uint32_t b : bank.delta_begin()) w.pod<std::uint32_t>(b);
  for (const bitpack::FilterDelta& d : bank.deltas()) {
    w.pod<std::uint32_t>(d.word);
    w.pod<std::uint64_t>(d.mask);
  }
}

void write_network(ByteWriter& w, const Network& net, std::uint32_t version) {
  w.str(net.name());
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(net.size()));
  for (const auto& layer : net.layers()) {
    if (const auto* l = dynamic_cast<const core::InputConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kInputConv));
      w.str(l->name());
      w.geom(l->geometry());
      w.packed(l->weights());
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::BinaryConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kBinaryConv));
      w.str(l->name());
      w.geom(l->geometry());
      if (version >= 4) {
        // Storage-mode byte: 1 (dictionary/index/delta) only when the
        // encoding is STRICTLY smaller than the raw words — incompressible
        // banks keep mode 0, so compression never grows a file.
        const bitpack::CompressedFilterBank& bank = l->compressed_bank();
        const bool compressed =
            bank.stats().encoded_bytes < bank.stats().raw_bytes;
        w.pod<std::uint8_t>(compressed ? 1 : 0);
        if (compressed) {
          write_compressed_bank(w, bank);
        } else {
          w.packed(l->weights());
        }
      } else {
        w.packed(l->weights());
      }
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::MaxPool2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kMaxPool));
      w.str(l->name());
      w.pod<std::int64_t>(l->geometry().size);
      w.pod<std::int64_t>(l->geometry().stride);
      w.pod<std::int64_t>(l->geometry().pad);
      w.pod<std::uint8_t>(l->geometry().tail_pad ? 1 : 0);
    } else if (const auto* l =
                   dynamic_cast<const core::BinaryDense*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kBinaryDense));
      w.str(l->name());
      w.packed(l->weights());
      w.bn_params(l->raw_bn());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::FloatConv2d*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kFloatConv));
      w.str(l->name());
      w.geom(l->geometry());
      w.float_tensor(l->weights());
      w.floats(l->bias());
    } else if (const auto* l =
                   dynamic_cast<const core::FloatDense*>(layer.get())) {
      w.pod(static_cast<std::uint8_t>(LayerKind::kFloatDense));
      w.str(l->name());
      w.float_tensor(l->weights());
      w.floats(l->bias());
    } else {
      throw InvalidArgument("layer '" + layer->name() +
                            "' is not artifact-serializable");
    }
  }
}

/// Packed weight banks must arrive with the pad-word invariant intact: bits
/// beyond the true channel count are zero, or the Eqn-1 dot silently counts
/// phantom channels. Checked per deserialized bank, at its file position.
bitpack::PackedTensor read_weights(ByteReader& r, const std::string& name) {
  bitpack::PackedTensor p = r.packed();
  if (!p.padding_clear()) {
    r.fail("corrupted weight words: pad bits beyond channel " +
           std::to_string(p.channels()) + " are set in layer '" + name + "'");
  }
  return p;
}

/// Mode-1 decoder: revalidates EVERY structural invariant build() guarantees
/// before handing the parts to the bank constructor — a resealed edit to any
/// section (dictionary, index, CSR offsets, delta entries) fails here with
/// the section + byte offset, never inside a kernel. Allocation is always
/// preceded by a need_ahead() against the remaining bytes, so corrupt counts
/// fail as truncation instead of giant allocation attempts.
std::shared_ptr<const bitpack::CompressedFilterBank> read_compressed_bank(
    ByteReader& r, const std::string& name) {
  const Shape s = r.positive_shape();
  const std::int64_t k_words = s.h * s.w * ceil_div(s.c, bitpack::kWordBits);
  const auto stored_k = r.pod<std::int64_t>();
  if (stored_k != k_words) {
    r.fail("compressed bank records " + std::to_string(stored_k) +
           " words per filter, shape " + s.str() + " implies " +
           std::to_string(k_words) + " in layer '" + name + "'");
  }
  const auto unique = r.pod<std::uint32_t>();
  if (unique == 0 || static_cast<std::int64_t>(unique) > s.n) {
    r.fail("implausible dictionary size " + std::to_string(unique) + " for " +
           std::to_string(s.n) + " filters in layer '" + name + "'");
  }
  r.need_ahead(static_cast<std::size_t>(unique) *
               static_cast<std::size_t>(k_words) * 8);
  std::vector<std::uint64_t> dict(static_cast<std::size_t>(unique) *
                                  static_cast<std::size_t>(k_words));
  r.raw(dict.data(), dict.size() * 8);

  const std::size_t nf = static_cast<std::size_t>(s.n);
  r.need_ahead(nf * 4);
  std::vector<std::uint32_t> row_index(nf);
  r.raw(row_index.data(), nf * 4);
  std::vector<std::uint8_t> referenced(unique, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    if (row_index[f] >= unique) {
      r.fail("filter " + std::to_string(f) + " references dictionary row " +
             std::to_string(row_index[f]) + " of " + std::to_string(unique) +
             " in layer '" + name + "'");
    }
    referenced[row_index[f]] = 1;
  }
  // Canonical-encoding check: build() never emits an orphan row, so one in a
  // file means the dictionary or index section was tampered with.
  for (std::uint32_t u = 0; u < unique; ++u) {
    if (referenced[u] == 0) {
      r.fail("dictionary row " + std::to_string(u) +
             " is referenced by no filter in layer '" + name + "'");
    }
  }

  const auto total = r.pod<std::uint32_t>();
  if (static_cast<std::int64_t>(total) > s.n * k_words) {
    r.fail("implausible delta count " + std::to_string(total) +
           " in layer '" + name + "'");
  }
  r.need_ahead((nf + 1) * 4);
  std::vector<std::uint32_t> delta_begin(nf + 1);
  r.raw(delta_begin.data(), (nf + 1) * 4);
  if (delta_begin[0] != 0) {
    r.fail("delta offsets must start at 0 in layer '" + name + "'");
  }
  for (std::size_t f = 1; f <= nf; ++f) {
    if (delta_begin[f] < delta_begin[f - 1]) {
      r.fail("delta offsets decrease at filter " + std::to_string(f) +
             " in layer '" + name + "'");
    }
  }
  if (delta_begin[nf] != total) {
    r.fail("delta offsets end at " + std::to_string(delta_begin[nf]) +
           ", delta count says " + std::to_string(total) + " in layer '" +
           name + "'");
  }

  r.need_ahead(static_cast<std::size_t>(total) * 12);
  std::vector<bitpack::FilterDelta> deltas;
  deltas.reserve(total);
  for (std::size_t f = 0; f < nf; ++f) {
    std::int64_t prev = -1;
    for (std::uint32_t i = delta_begin[f]; i < delta_begin[f + 1]; ++i) {
      bitpack::FilterDelta d;
      d.word = r.pod<std::uint32_t>();
      d.mask = r.pod<std::uint64_t>();
      if (static_cast<std::int64_t>(d.word) >= k_words ||
          static_cast<std::int64_t>(d.word) <= prev) {
        r.fail("filter " + std::to_string(f) + " delta word " +
               std::to_string(d.word) +
               " out of order or out of range in layer '" + name + "'");
      }
      if (d.mask == 0) {
        r.fail("filter " + std::to_string(f) +
               " carries an empty delta mask in layer '" + name + "'");
      }
      prev = static_cast<std::int64_t>(d.word);
      deltas.push_back(d);
    }
  }
  return contextualized(r, [&] {
    return std::make_shared<const bitpack::CompressedFilterBank>(
        s, std::move(dict), std::move(row_index), std::move(delta_begin),
        std::move(deltas));
  });
}

std::unique_ptr<Network> read_network(ByteReader& r, std::uint32_t version) {
  auto net = std::make_unique<Network>(r.str());
  const auto count = r.pod<std::uint32_t>();
  if (count == 0 || count > kMaxCount) {
    r.fail("implausible layer count " + std::to_string(count));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto kind = r.pod<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(LayerKind::kFloatDense)) {
      r.fail("unknown layer kind " + std::to_string(kind));
    }
    const std::string name = r.str();
    switch (static_cast<LayerKind>(kind)) {
      case LayerKind::kInputConv: {
        const ConvGeometry g = r.geom();
        auto weights = read_weights(r, name);
        auto bn = r.bn_params();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::InputConv2d>(name, std::move(weights),
                                          std::move(bn), std::move(bias), g);
          return 0;
        });
        break;
      }
      case LayerKind::kBinaryConv: {
        const ConvGeometry g = r.geom();
        bool compressed = false;
        if (version >= 4) {
          const auto mode = r.pod<std::uint8_t>();
          if (mode > 1) {
            r.fail("invalid weight storage mode " + std::to_string(mode) +
                   " in layer '" + name + "'");
          }
          compressed = mode == 1;
        }
        if (compressed) {
          auto bank = read_compressed_bank(r, name);
          // Reconstruct the exact packed bank and hold it to the same
          // pad-word invariant raw weights are held to — then hand the
          // decoded bank to the layer so loading never re-clusters.
          bitpack::PackedTensor weights = bank->reconstruct();
          if (!weights.padding_clear()) {
            r.fail("corrupted compressed weights: pad bits beyond channel " +
                   std::to_string(weights.channels()) +
                   " are set in layer '" + name + "'");
          }
          auto bn = r.bn_params();
          auto bias = r.floats();
          contextualized(r, [&] {
            auto& conv = net->emplace<core::BinaryConv2d>(
                name, std::move(weights), std::move(bn), std::move(bias), g);
            conv.adopt_bank(std::move(bank));
            return 0;
          });
        } else {
          auto weights = read_weights(r, name);
          auto bn = r.bn_params();
          auto bias = r.floats();
          contextualized(r, [&] {
            net->emplace<core::BinaryConv2d>(name, std::move(weights),
                                             std::move(bn), std::move(bias),
                                             g);
            return 0;
          });
        }
        break;
      }
      case LayerKind::kMaxPool: {
        core::PoolGeometry g;
        g.size = r.pod<std::int64_t>();
        g.stride = r.pod<std::int64_t>();
        g.pad = r.pod<std::int64_t>();
        g.tail_pad = read_bool(r);
        if (g.size <= 0 || g.stride <= 0 || g.pad < 0) {
          r.fail("invalid pool geometry in layer '" + name + "'");
        }
        net->emplace<core::MaxPool2d>(name, g);
        break;
      }
      case LayerKind::kBinaryDense: {
        auto weights = read_weights(r, name);
        auto bn = r.bn_params();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::BinaryDense>(name, std::move(weights),
                                          std::move(bn), std::move(bias));
          return 0;
        });
        break;
      }
      case LayerKind::kFloatConv: {
        const ConvGeometry g = r.geom();
        auto weights = r.float_tensor();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::FloatConv2d>(name, std::move(weights),
                                          std::move(bias), g);
          return 0;
        });
        break;
      }
      case LayerKind::kFloatDense: {
        auto weights = r.float_tensor();
        auto bias = r.floats();
        contextualized(r, [&] {
          net->emplace<core::FloatDense>(name, std::move(weights),
                                         std::move(bias));
          return 0;
        });
        break;
      }
    }
  }
  return net;
}

// --- fixed fields ----------------------------------------------------------

// Bytes the format still carries for conv-schedule knobs the engine no
// longer has: the interior/border split (always on), the output-x tile
// width (always 8) and span-keyed pack widths (always on) in the options
// record, and the split flag of each kernel variant (set on conv and
// input-conv steps). Every file written with default options holds exactly
// these values, so writers emit them unchanged and readers reject anything
// else: a file that asked for the removed per-tap schedule must not run
// silently under the one schedule left.
constexpr std::uint8_t kFixedInteriorSplit = 1;
constexpr std::int64_t kFixedConvTileOw = 8;
constexpr std::uint8_t kFixedSpanKeyedPackWidth = 1;

template <typename T>
void read_fixed(ByteReader& r, T expected, const char* field) {
  const T v = r.pod<T>();
  if (v != expected) {
    r.fail(std::string(field) + " records " + std::to_string(v) +
           "; the engine runs one conv schedule and accepts only " +
           std::to_string(expected));
  }
}

/// Whether a step's variant carries the split flag set (see above).
bool is_conv_step(const Layer* layer) {
  return dynamic_cast<const core::BinaryConv2d*>(layer) != nullptr ||
         dynamic_cast<const core::InputConv2d*>(layer) != nullptr;
}

// --- options section -------------------------------------------------------

void write_options(ByteWriter& w, const EngineOptions& o,
                   std::uint32_t version) {
  w.pod<std::uint8_t>(o.fuse_bn_binarize ? 1 : 0);
  w.pod<std::uint8_t>(o.branch_free_binarize ? 1 : 0);
  w.pod<std::uint8_t>(o.integrate_packing ? 1 : 0);
  w.pod<std::uint8_t>(o.fuse_conv_pool ? 1 : 0);
  w.pod<std::int64_t>(o.packing_channel_threshold);
  w.pod<std::uint8_t>(kFixedInteriorSplit);
  w.pod<std::int64_t>(kFixedConvTileOw);
  w.pod<std::uint8_t>(o.auto_pack_width ? 1 : 0);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(
      bitpack::bits(o.fixed_pack_width)));
  w.pod<std::uint8_t>(kFixedSpanKeyedPackWidth);
  w.pod<std::uint8_t>(o.vectorized_loads ? 1 : 0);
  w.pod<std::uint8_t>(o.layout == Layout::kNCHW ? 1 : 0);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(o.conv_path));
  if (version >= 4) {
    w.pod<std::uint8_t>(static_cast<std::uint8_t>(o.weight_compress));
  } else {
    // save() only picks v3 when compression is off; a v3 record cannot
    // carry the knob, so anything else here would be silently dropped.
    PB_CHECK(o.weight_compress == core::WeightCompress::kOff,
             "v3 artifact cannot record weight compression");
  }
}

EngineOptions read_options(ByteReader& r, std::uint32_t version) {
  EngineOptions o;
  o.fuse_bn_binarize = read_bool(r);
  o.branch_free_binarize = read_bool(r);
  o.integrate_packing = read_bool(r);
  o.fuse_conv_pool = read_bool(r);
  o.packing_channel_threshold = r.pod<std::int64_t>();
  if (o.packing_channel_threshold < 0) r.fail("negative packing threshold");
  read_fixed(r, kFixedInteriorSplit, "interior split");
  read_fixed(r, kFixedConvTileOw, "conv tile width");
  o.auto_pack_width = read_bool(r);
  o.fixed_pack_width = read_pack_width(r);
  read_fixed(r, kFixedSpanKeyedPackWidth, "span-keyed pack width");
  o.vectorized_loads = read_bool(r);
  o.layout = read_bool(r) ? Layout::kNCHW : Layout::kNHWC;
  const auto conv_path = r.pod<std::uint8_t>();
  if (conv_path > static_cast<std::uint8_t>(core::ConvPathPreference::kGemm)) {
    r.fail("invalid conv path preference " + std::to_string(conv_path));
  }
  o.conv_path = static_cast<core::ConvPathPreference>(conv_path);
  if (version >= 4) {
    const auto wc = r.pod<std::uint8_t>();
    if (wc > static_cast<std::uint8_t>(core::WeightCompress::kAuto)) {
      r.fail("invalid weight compression mode " + std::to_string(wc));
    }
    o.weight_compress = static_cast<core::WeightCompress>(wc);
  }
  return o;
}

// --- kernel variants / scratch ---------------------------------------------

void write_variant(ByteWriter& w, const KernelVariant& v, bool conv_step,
                   std::uint32_t version) {
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(v.path));
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(bits(v.pack_width)));
  w.pod<std::uint8_t>(conv_step ? 1 : 0);
  if (version >= 4) {
    w.pod<std::uint8_t>(v.reuse ? 1 : 0);
  } else {
    PB_CHECK(!v.reuse, "v3 artifact cannot record a reuse kernel variant");
  }
  w.pod<std::int64_t>(v.tile_ow);
  w.str(v.kernel);
}

KernelVariant read_variant(ByteReader& r, bool conv_step,
                           std::uint32_t version) {
  KernelVariant v;
  const auto path = r.pod<std::uint8_t>();
  if (path > static_cast<std::uint8_t>(KernelVariant::Path::kConvGemm)) {
    r.fail("invalid kernel path " + std::to_string(path));
  }
  v.path = static_cast<KernelVariant::Path>(path);
  v.pack_width = read_pack_width(r);
  read_fixed<std::uint8_t>(r, conv_step ? 1 : 0, "kernel variant split flag");
  if (version >= 4) v.reuse = read_bool(r);
  v.tile_ow = r.pod<std::int64_t>();
  if (v.tile_ow < 0) r.fail("negative kernel tile width");
  v.kernel = r.str();
  return v;
}

void write_scratch(ByteWriter& w, const ScratchNeed& s) {
  w.pod<std::int64_t>(s.i32);
  w.pod<std::int64_t>(s.f32);
  w.pod<std::int64_t>(s.u8);
  w.pod<std::int64_t>(s.words);
}

ScratchNeed read_scratch(ByteReader& r) {
  ScratchNeed s;
  s.i32 = r.pod<std::int64_t>();
  s.f32 = r.pod<std::int64_t>();
  s.u8 = r.pod<std::int64_t>();
  s.words = r.pod<std::int64_t>();
  if (s.i32 < 0 || s.f32 < 0 || s.u8 < 0 || s.words < 0) {
    r.fail("negative scratch requirement");
  }
  return s;
}

}  // namespace

const char* section_name(Section s) noexcept {
  switch (s) {
    case Section::kNetwork: return "network";
    case Section::kOptions: return "options";
    case Section::kInput: return "input";
    case Section::kPlan: return "plan";
    case Section::kTarget: return "target";
  }
  return "?";
}

std::uint64_t checksum(const void* data, std::size_t n) noexcept {
  return core::wire::fnv1a64(data, n);
}

/// Friend of ExecutionPlan (plan.hpp): the one deserialization path allowed
/// to rebuild a plan field by field. Decode VALIDATES the full structural
/// contract — step edges, slot-table layout, scratch peaks — so a loaded
/// plan is indistinguishable from a freshly compiled one.
class PlanCodec {
 public:
  static void encode(ByteWriter& w, const Network& net,
                     const core::ExecutionPlan& p, std::uint32_t version) {
    PB_CHECK(p.network_name() == net.name(),
             "plan '" << p.network_name()
                      << "' was not compiled from network '" << net.name()
                      << "'");
    w.str(p.name_);
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(p.steps_.size()));
    for (const PlanStep& step : p.steps_) {
      const std::ptrdiff_t idx = net.index_of(step.layer);
      PB_CHECK(idx >= 0, "plan step '"
                             << step.name()
                             << "' references a layer that is not part of "
                                "network '"
                             << net.name() << "'");
      w.pod<std::uint32_t>(static_cast<std::uint32_t>(idx));
      std::ptrdiff_t fused = -1;
      if (step.fused_pool != nullptr) {
        fused = net.index_of(step.fused_pool);
        PB_CHECK(fused >= 0, "plan step '" << step.name()
                                           << "' fuses a foreign pool layer");
      }
      w.pod<std::int32_t>(static_cast<std::int32_t>(fused));
      write_blob_desc(w, step.in);
      write_blob_desc(w, step.out);
      write_blob_desc(w, step.fused_mid);
      write_variant(w, step.variant, is_conv_step(step.layer), version);
      write_scratch(w, step.scratch);
      if (version >= 4) {
        w.pod<std::int64_t>(step.wcomp.unique_rows);
        w.pod<std::int64_t>(step.wcomp.raw_bytes);
        w.pod<std::int64_t>(step.wcomp.encoded_bytes);
      }
      w.pod<std::int32_t>(step.slot);
      w.str(step.display);
    }
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(p.slots_.size()));
    for (const ActivationSlot& s : p.slots_) {
      w.pod<std::int64_t>(s.bytes);
      w.pod<std::int64_t>(s.offset);
    }
    write_scratch(w, p.scratch_peak_);
    w.pod<std::int64_t>(p.slab_bytes_);
    w.pod<std::int64_t>(p.output_offset_);
  }

  static core::ExecutionPlan decode(ByteReader& r, const Network& net,
                                    const EngineOptions& opts,
                                    const BlobDesc& input,
                                    std::uint32_t version) {
    core::ExecutionPlan p;
    p.name_ = r.str();
    if (p.name_ != net.name()) {
      r.fail("plan network name '" + p.name_ +
             "' disagrees with serialized network '" + net.name() + "'");
    }
    p.opts_ = opts;
    p.input_ = input;

    const auto step_count = r.pod<std::uint32_t>();
    if (step_count == 0 || step_count > kMaxCount) {
      r.fail("implausible step count " + std::to_string(step_count));
    }
    p.steps_.reserve(step_count);
    for (std::uint32_t i = 0; i < step_count; ++i) {
      PlanStep step;
      const auto layer_idx = r.pod<std::uint32_t>();
      if (layer_idx >= net.size()) {
        r.fail("step " + std::to_string(i) + " layer index " +
               std::to_string(layer_idx) + " out of range (network has " +
               std::to_string(net.size()) + " layers)");
      }
      step.layer = net.layers()[layer_idx].get();
      const auto fused_idx = r.pod<std::int32_t>();
      if (fused_idx < -1 ||
          fused_idx >= static_cast<std::int32_t>(net.size())) {
        r.fail("step " + std::to_string(i) + " fused pool index " +
               std::to_string(fused_idx) + " out of range");
      }
      step.in = read_blob_desc(r, /*materialized=*/true);
      step.out = read_blob_desc(r, /*materialized=*/true);
      const bool fused = fused_idx >= 0;
      step.fused_mid = read_blob_desc(r, /*materialized=*/fused);
      // Step edges must chain exactly: the plan's dataflow is part of the
      // contract, not re-inferred at load.
      const BlobDesc& expected_in =
          i == 0 ? input : p.steps_.back().out;
      if (!(step.in == expected_in)) {
        r.fail("step " + std::to_string(i) + " input " + step.in.str() +
               " breaks the pipeline edge (expected " + expected_in.str() +
               ")");
      }
      step.variant = read_variant(r, is_conv_step(step.layer), version);
      // Conv-path kernels partition output columns by the tile: a resealed
      // zero would reach ceil_div(ow, 0). Non-conv layers (path kDefault)
      // legitimately record 0 ("does not tile") and never divide by it.
      if (step.variant.path != KernelVariant::Path::kDefault &&
          step.variant.tile_ow < 1) {
        r.fail("step " + std::to_string(i) +
               " conv variant records tile width " +
               std::to_string(step.variant.tile_ow) +
               " (conv kernels tile by it; must be >= 1)");
      }
      if (step.variant.reuse) {
        // Reuse variants are only ever selected for binary convs under
        // kAuto. The GEMM-reuse kernel additionally indexes a FIXED stack
        // partial buffer by dictionary row, so the cap is a memory-safety
        // bound against resealed files (the bank here is the loader-adopted
        // one — honest reuse layers always ship mode-1 weights, so this
        // does not re-cluster).
        const auto* conv =
            dynamic_cast<const core::BinaryConv2d*>(step.layer);
        if (conv == nullptr ||
            opts.weight_compress != core::WeightCompress::kAuto) {
          r.fail("step " + std::to_string(i) +
                 " records a reuse kernel outside auto weight compression");
        }
        if (step.variant.path == KernelVariant::Path::kConvGemm &&
            conv->compressed_bank().unique_rows() > bitpack::kReuseMaxDict) {
          r.fail("step " + std::to_string(i) +
                 " reuse dictionary exceeds the kernel cap " +
                 std::to_string(bitpack::kReuseMaxDict));
        }
      }
      if (fused) {
        step.fused_pool = net.layers()[static_cast<std::size_t>(fused_idx)]
                              .get();
        const auto* mp =
            dynamic_cast<const core::MaxPool2d*>(step.fused_pool);
        if (mp == nullptr) {
          r.fail("step " + std::to_string(i) +
                 " fused pool index does not name a MaxPool2d layer");
        }
        if (step.variant.path != KernelVariant::Path::kConvFused) {
          r.fail("step " + std::to_string(i) +
                 " records a fused pool on a non-path-A conv");
        }
        // Re-run the compile-time legality predicate and the tile cap: the
        // fused kernel indexes a FIXED stack row buffer by this geometry
        // and tile, so these are memory-safety bounds, not preferences —
        // they must hold even against a checksum-resealed file.
        if (!core::fused_pool_geometry_legal(mp->geometry())) {
          r.fail("step " + std::to_string(i) +
                 " fuses a pool whose geometry is not fusable (stride must "
                 "equal size, size 2..3)");
        }
        if (step.variant.tile_ow < 1 ||
            step.variant.tile_ow > core::max_fused_tile(mp->geometry())) {
          r.fail("step " + std::to_string(i) + " fused tile width " +
                 std::to_string(step.variant.tile_ow) +
                 " exceeds the fused row-buffer cap " +
                 std::to_string(core::max_fused_tile(mp->geometry())));
        }
      }
      step.scratch = read_scratch(r);
      if (version >= 4) {
        step.wcomp.unique_rows = r.pod<std::int64_t>();
        step.wcomp.raw_bytes = r.pod<std::int64_t>();
        step.wcomp.encoded_bytes = r.pod<std::int64_t>();
        // Compression stats are recorded exactly when compile records them:
        // for binary convs under a compressing plan, and nowhere else. The
        // cheap invariants (raw bytes match the layer's weight bank, the
        // dictionary is 1..C_out rows) catch resealed edits without
        // re-clustering anything at load.
        const auto* conv =
            dynamic_cast<const core::BinaryConv2d*>(step.layer);
        if (conv != nullptr &&
            opts.weight_compress != core::WeightCompress::kOff) {
          if (step.wcomp.raw_bytes != conv->weights().bytes() ||
              step.wcomp.unique_rows < 1 ||
              step.wcomp.unique_rows > conv->out_channels() ||
              step.wcomp.encoded_bytes <= 0) {
            r.fail("step " + std::to_string(i) +
                   " compression stats disagree with the layer's weight "
                   "bank");
          }
        } else if (step.wcomp.unique_rows != 0 ||
                   step.wcomp.raw_bytes != 0 ||
                   step.wcomp.encoded_bytes != 0) {
          r.fail("step " + std::to_string(i) +
                 " records compression stats on a step that has none");
        }
      }
      step.slot = r.pod<std::int32_t>();
      step.display = r.str();
      // Shape replay: the descriptors are not free data either — each
      // layer's own plan() must infer EXACTLY the recorded output from the
      // recorded input (and, for fused steps, the pool must map fused_mid
      // to the pooled output). A consistently resealed shape edit would
      // otherwise pass the slot/slab arithmetic while silently voiding the
      // zero-allocation guarantee at run time (undersized slots degrade to
      // heap fallbacks). Kernel VARIANTS are deliberately NOT replayed:
      // pinning the ahead-of-time selection is the artifact's purpose.
      {
        core::PlanContext pc(step.in, opts, /*stats=*/nullptr);
        try {
          step.layer->plan(pc);
        } catch (const Error& e) {
          r.fail("step " + std::to_string(i) + " shape replay failed: " +
                 e.what());
        }
        const BlobDesc& direct = pc.out_;
        if (fused) {
          if (!(direct == step.fused_mid)) {
            r.fail("step " + std::to_string(i) + " fused_mid " +
                   step.fused_mid.str() +
                   " disagrees with the conv's shape inference " +
                   direct.str());
          }
          core::PlanContext pool_pc(step.fused_mid, opts, /*stats=*/nullptr);
          try {
            step.fused_pool->plan(pool_pc);
          } catch (const Error& e) {
            r.fail("step " + std::to_string(i) +
                   " fused pool shape replay failed: " + e.what());
          }
          if (!(pool_pc.out_ == step.out)) {
            r.fail("step " + std::to_string(i) + " pooled output " +
                   step.out.str() +
                   " disagrees with the pool's shape inference " +
                   pool_pc.out_.str());
          }
        } else if (!(direct == step.out)) {
          r.fail("step " + std::to_string(i) + " output " + step.out.str() +
                 " disagrees with the layer's shape inference " +
                 direct.str());
        }
        // Scratch replay: compile copied step.scratch from this same
        // plan() call (selection is deterministic in opts + geometry), so
        // equality is guaranteed for honest files — and without it the
        // peak check below is circular: a resealed artifact could zero
        // every requirement AND the stored peak, under-reserve the arena
        // and under-count the device-RAM fit test. An artifact from a
        // build with different planning heuristics fails here by design:
        // pre-1.0 policy is re-run the converter, not decode old plans.
        if (pc.scratch_.i32 != step.scratch.i32 ||
            pc.scratch_.f32 != step.scratch.f32 ||
            pc.scratch_.u8 != step.scratch.u8 ||
            pc.scratch_.words != step.scratch.words) {
          r.fail("step " + std::to_string(i) +
                 " scratch requirement disagrees with plan replay "
                 "(re-run the converter against this build)");
        }
      }
      p.steps_.push_back(std::move(step));
    }
    if (p.steps_.back().slot != -1) {
      r.fail("final step must write the network output (slot -1), found "
             "slot " +
             std::to_string(p.steps_.back().slot));
    }

    // Slot table: the offsets are not free data — they must reproduce the
    // exact sequential 8-byte-aligned layout the liveness pass emits, and
    // each slot must be sized to the largest step output assigned to it.
    // Any bit flip in the table breaks one of these equalities.
    const auto slot_count = r.pod<std::uint32_t>();
    if (slot_count > kMaxCount) {
      r.fail("implausible slot count " + std::to_string(slot_count));
    }
    std::vector<std::int64_t> want_bytes(slot_count, 0);
    for (std::uint32_t i = 0; i + 1 < step_count; ++i) {
      const std::int32_t slot = p.steps_[i].slot;
      if (slot < 0 || slot >= static_cast<std::int32_t>(slot_count)) {
        r.fail("step " + std::to_string(i) + " activation slot " +
               std::to_string(slot) + " out of range (" +
               std::to_string(slot_count) + " slots)");
      }
      // Ping-pong discipline: step i+1 READS slot i while WRITING its own
      // slot, so adjacent steps sharing a slot would alias input and
      // output in place — a resealed slot edit must not be able to make
      // run() silently compute over its own half-written output.
      if (i > 0 && slot == p.steps_[i - 1].slot) {
        r.fail("steps " + std::to_string(i - 1) + " and " +
               std::to_string(i) + " share activation slot " +
               std::to_string(slot) + " (in-place aliasing)");
      }
      auto& want = want_bytes[static_cast<std::size_t>(slot)];
      want = std::max(want, p.steps_[i].out.bytes());
    }
    std::int64_t off = 0;
    p.slots_.reserve(slot_count);
    for (std::uint32_t i = 0; i < slot_count; ++i) {
      ActivationSlot s;
      s.bytes = r.pod<std::int64_t>();
      s.offset = r.pod<std::int64_t>();
      // Every declared slot must be referenced by a step: compile never
      // emits an unused slot, and a phantom zero-byte entry would slip
      // through the equality checks below (slab_align(0) == 0).
      if (want_bytes[i] <= 0) {
        r.fail("slot " + std::to_string(i) +
               " is not referenced by any step");
      }
      if (s.bytes != want_bytes[i]) {
        r.fail("slot table corrupt: slot " + std::to_string(i) + " holds " +
               std::to_string(s.bytes) + " bytes, assigned steps need " +
               std::to_string(want_bytes[i]));
      }
      if (s.offset != off) {
        r.fail("slot table corrupt: slot " + std::to_string(i) +
               " offset " + std::to_string(s.offset) + ", layout expects " +
               std::to_string(off));
      }
      off += core::slab_align(s.bytes);
      p.slots_.push_back(s);
    }

    // Peaks: recomputed from the steps and compared exactly — the plan's
    // reserve must stay byte-exact on the loading device.
    ScratchNeed peak;
    for (const PlanStep& step : p.steps_) peak.max_with(step.scratch);
    const ScratchNeed stored = read_scratch(r);
    if (stored.i32 != peak.i32 || stored.f32 != peak.f32 ||
        stored.u8 != peak.u8 || stored.words != peak.words) {
      r.fail("scratch peak disagrees with the per-step requirements");
    }
    p.scratch_peak_ = stored;
    p.slab_bytes_ = r.pod<std::int64_t>();
    p.output_offset_ = r.pod<std::int64_t>();
    if (p.output_offset_ != off) {
      r.fail("output staging offset " + std::to_string(p.output_offset_) +
             " disagrees with slot layout end " + std::to_string(off));
    }
    const std::int64_t want_slab =
        off + core::slab_align(p.steps_.back().out.bytes());
    if (p.slab_bytes_ != want_slab) {
      r.fail("slab size " + std::to_string(p.slab_bytes_) +
             " disagrees with recomputed layout " +
             std::to_string(want_slab));
    }
    return p;
  }
};

namespace {

/// Appends one framed section: tag, body length (back-patched), body.
template <typename Body>
void write_section(ByteWriter& w, Section tag, Body&& body) {
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(tag));
  const std::int64_t len_at = w.offset();
  w.pod<std::uint64_t>(0);
  const std::int64_t start = w.offset();
  body(w);
  const std::uint64_t len = static_cast<std::uint64_t>(w.offset() - start);
  w.patch(len_at, &len, sizeof(len));
}

/// Reads one section frame, checks the tag and hands the body bounds back.
std::int64_t open_section(ByteReader& r, Section expected) {
  r.set_section("sections");
  const auto tag = r.pod<std::uint32_t>();
  if (tag != static_cast<std::uint32_t>(expected)) {
    r.fail(std::string("expected section '") + section_name(expected) +
           "' (tag " +
           std::to_string(static_cast<std::uint32_t>(expected)) +
           "), found tag " + std::to_string(tag));
  }
  const auto body = r.pod<std::uint64_t>();
  // Compare UNSIGNED: a corrupt length >= 2^63 would wrap negative under a
  // signed cast and sail past this bound.
  if (body > static_cast<std::uint64_t>(r.remaining())) {
    r.fail(std::string("section '") + section_name(expected) +
           "' body runs past end of file: " + std::to_string(body) +
           " bytes declared, " + std::to_string(r.remaining()) + " remain");
  }
  r.set_section(section_name(expected));
  return static_cast<std::int64_t>(body);
}

void close_section(ByteReader& r, Section sec, std::int64_t body_start,
                   std::int64_t body_bytes) {
  if (r.offset() != body_start + body_bytes) {
    r.fail(std::string("section '") + section_name(sec) +
           "' body length mismatch: declared " + std::to_string(body_bytes) +
           " bytes, decoded " + std::to_string(r.offset() - body_start));
  }
}

/// Header checks shared by load() and section_table(); returns the format
/// version (within [kMinFormatVersion, kFormatVersion]) so the section
/// decoders know which record layout to expect.
std::uint32_t check_header(ByteReader& r, const std::vector<std::uint8_t>& buf,
                           const std::string& path) {
  r.set_section("header");
  // Reject short files up front: the payload-length comparison below and
  // load()'s direct checksum read both assume at least a full header, and
  // `buf.size() - kHeaderBytes` would wrap on anything shorter.
  if (buf.size() < static_cast<std::size_t>(kHeaderBytes)) {
    fail_at(path, "header", static_cast<std::int64_t>(buf.size()),
            "truncated header: " + std::to_string(buf.size()) +
                " bytes, need " + std::to_string(kHeaderBytes));
  }
  const auto magic = r.pod<std::uint32_t>();
  if (magic != kMagic) {
    fail_at(path, "header", kMagicOffset,
            "bad magic (not a PhoneBit artifact)");
  }
  const auto version = r.pod<std::uint32_t>();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    fail_at(path, "header", kVersionOffset,
            "unsupported artifact format version " + std::to_string(version) +
                " (this build reads versions " +
                std::to_string(kMinFormatVersion) + ".." +
                std::to_string(kFormatVersion) + ")");
  }
  const auto endian = r.pod<std::uint32_t>();
  if (endian != kEndianMark) {
    fail_at(path, "header", kEndianOffset,
            endian == 0x04030201u
                ? std::string("endianness mismatch: artifact was written on "
                              "a foreign-endian machine")
                : "corrupt endianness marker");
  }
  const auto header_bytes = r.pod<std::uint32_t>();
  if (header_bytes != static_cast<std::uint32_t>(kHeaderBytes)) {
    fail_at(path, "header", kHeaderBytesOffset,
            "unexpected header size " + std::to_string(header_bytes));
  }
  const auto payload_bytes = r.pod<std::uint64_t>();
  if (payload_bytes !=
      static_cast<std::uint64_t>(buf.size()) -
          static_cast<std::uint64_t>(kHeaderBytes)) {
    fail_at(path, "header", kPayloadBytesOffset,
            "payload length mismatch: header declares " +
                std::to_string(payload_bytes) + " bytes, file carries " +
                std::to_string(buf.size() - kHeaderBytes));
  }
  return version;
}

}  // namespace

void save(const Network& net, const core::ExecutionPlan& plan,
          const std::string& path, const std::string& target_profile) {
  // Dual-write: a plan compiled with weight compression off serializes as
  // v3, byte-identical to pre-v4 producers — default-configuration artifact
  // checksums are stable across this format revision. Any compressing plan
  // needs the v4 record extensions.
  const std::uint32_t version =
      plan.options().weight_compress == core::WeightCompress::kOff
          ? kMinFormatVersion
          : kFormatVersion;
  ByteWriter payload;
  write_section(payload, Section::kNetwork,
                [&](ByteWriter& w) { write_network(w, net, version); });
  write_section(payload, Section::kOptions, [&](ByteWriter& w) {
    write_options(w, plan.options(), version);
  });
  write_section(payload, Section::kInput,
                [&](ByteWriter& w) { write_blob_desc(w, plan.input()); });
  write_section(payload, Section::kPlan, [&](ByteWriter& w) {
    PlanCodec::encode(w, net, plan, version);
  });
  // Always framed, even when empty: every v2 artifact has exactly five
  // sections, so readers need no optional-section logic.
  write_section(payload, Section::kTarget,
                [&](ByteWriter& w) { w.str(target_profile); });

  ByteWriter header;
  header.pod<std::uint32_t>(kMagic);
  header.pod<std::uint32_t>(version);
  header.pod<std::uint32_t>(kEndianMark);
  header.pod<std::uint32_t>(static_cast<std::uint32_t>(kHeaderBytes));
  header.pod<std::uint64_t>(
      static_cast<std::uint64_t>(payload.buffer().size()));
  header.pod<std::uint64_t>(
      checksum(payload.buffer().data(), payload.buffer().size()));

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw FormatError("cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(header.buffer().data()),
           static_cast<std::streamsize>(header.buffer().size()));
  os.write(reinterpret_cast<const char*>(payload.buffer().data()),
           static_cast<std::streamsize>(payload.buffer().size()));
  if (!os) throw FormatError("write failure on '" + path + "'");
}

LoadedArtifact load(const std::string& path) {
  const std::vector<std::uint8_t> buf = read_file(path);
  ByteReader r = make_reader(buf, path);
  const std::uint32_t version = check_header(r, buf, path);

  const std::uint64_t stored = [&] {
    std::uint64_t v;
    std::memcpy(&v, buf.data() + kChecksumOffset, sizeof(v));
    return v;
  }();
  const std::uint64_t computed =
      checksum(buf.data() + kHeaderBytes, buf.size() - kHeaderBytes);
  if (stored != computed) {
    std::ostringstream os;
    os << "payload checksum mismatch (stored 0x" << std::hex << stored
       << ", computed 0x" << computed << ") — the file is corrupt";
    fail_at(path, "checksum", kChecksumOffset, os.str());
  }
  r.skip(sizeof(std::uint64_t));  // past the verified checksum field

  std::unique_ptr<Network> network;
  {
    const std::int64_t body = open_section(r, Section::kNetwork);
    const std::int64_t start = r.offset();
    network = read_network(r, version);
    close_section(r, Section::kNetwork, start, body);
  }
  EngineOptions opts;
  {
    const std::int64_t body = open_section(r, Section::kOptions);
    const std::int64_t start = r.offset();
    opts = read_options(r, version);
    close_section(r, Section::kOptions, start, body);
  }
  BlobDesc input;
  {
    const std::int64_t body = open_section(r, Section::kInput);
    const std::int64_t start = r.offset();
    input = read_blob_desc(r, /*materialized=*/true);
    close_section(r, Section::kInput, start, body);
  }
  core::ExecutionPlan plan = [&] {
    const std::int64_t body = open_section(r, Section::kPlan);
    const std::int64_t start = r.offset();
    core::ExecutionPlan p =
        PlanCodec::decode(r, *network, opts, input, version);
    close_section(r, Section::kPlan, start, body);
    return p;
  }();
  std::string target;
  {
    const std::int64_t body = open_section(r, Section::kTarget);
    const std::int64_t start = r.offset();
    target = r.str();
    close_section(r, Section::kTarget, start, body);
  }
  r.set_section("trailer");
  if (r.remaining() != 0) {
    r.fail("trailing bytes after the last section");
  }
  return LoadedArtifact{std::move(network), std::move(plan),
                        std::move(target)};
}

std::vector<SectionInfo> section_table(const std::string& path) {
  const std::vector<std::uint8_t> buf = read_file(path);
  ByteReader r = make_reader(buf, path);
  check_header(r, buf, path);
  r.skip(sizeof(std::uint64_t));  // checksum (not verified here)
  std::vector<SectionInfo> table;
  r.set_section("sections");
  while (r.remaining() > 0) {
    SectionInfo info;
    const auto tag = r.pod<std::uint32_t>();
    if (tag < static_cast<std::uint32_t>(Section::kNetwork) ||
        tag > static_cast<std::uint32_t>(Section::kTarget)) {
      r.fail("unknown section tag " + std::to_string(tag));
    }
    info.tag = static_cast<Section>(tag);
    const auto body = r.pod<std::uint64_t>();
    if (body > static_cast<std::uint64_t>(r.remaining())) {
      r.fail("section body runs past end of file");
    }
    info.body_offset = r.offset();
    info.body_bytes = static_cast<std::int64_t>(body);
    r.skip(body);
    table.push_back(info);
  }
  return table;
}

void check_profile_fit(const core::Network& net,
                       const core::ExecutionPlan& plan,
                       const oclsim::DeviceProfile& profile,
                       const std::string& context) {
  const std::int64_t budget = profile.ram_mb << 20;
  if (budget <= 0) return;  // profile publishes no RAM figure
  const std::int64_t params = net.param_bytes();
  const std::int64_t slab = plan.slab_bytes();
  const std::int64_t scratch = plan.peak_scratch_bytes();
  const std::int64_t need = params + slab + scratch;
  if (need <= budget) return;
  // Itemized so a fleet operator can see WHICH component blows the budget
  // (params are fixed per model; slab/scratch scale with the input shape).
  std::ostringstream os;
  os << context << " needs " << need << " bytes but profile '"
     << profile.soc_name << " / " << profile.gpu_name << "' has " << budget
     << " bytes of RAM (" << profile.ram_mb << " MB); breakdown: " << params
     << " param bytes + " << slab << " activation-slab bytes + " << scratch
     << " scratch-peak bytes, over budget by " << (need - budget)
     << " bytes";
  throw OutOfMemoryError(os.str());
}

core::ExecutionPlan compile_for_profile(const core::Network& net,
                                        const core::EngineOptions& opts,
                                        const core::BlobDesc& input,
                                        const std::string& profile_key,
                                        const std::string& path) {
  const oclsim::DeviceProfile profile = oclsim::profile_by_name(profile_key);
  core::ExecutionPlan plan = net.compile(opts, input);
  check_profile_fit(net, plan, profile,
                    "artifact '" + path + "' (target '" + profile_key + "')");
  save(net, plan, path, profile_key);
  return plan;
}

}  // namespace phonebit::artifact

namespace phonebit::core {

artifact::LoadedArtifact Engine::load_artifact(const std::string& path) const {
  artifact::LoadedArtifact art = artifact::load(path);
  // Device-profile validation: the artifact records byte-exact peaks, so
  // the fit test is exact too — params + activation slab + scratch must fit
  // the simulated phone's RAM (profiles with no RAM figure skip the check).
  artifact::check_profile_fit(*art.network, art.plan, device_->profile(),
                              "artifact '" + path + "'");
  return art;
}

std::shared_ptr<const artifact::LoadedArtifact> Engine::load_artifact_shared(
    const std::string& path) const {
  return std::make_shared<const artifact::LoadedArtifact>(
      load_artifact(path));
}

}  // namespace phonebit::core
