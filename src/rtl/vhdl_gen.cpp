#include "rtl/vhdl_gen.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/datapath.hpp"

namespace ofdm::rtl {

namespace {

using core::OfdmParams;

std::string identifier_for(const OfdmParams& p) {
  std::string name = core::standard_name(p.standard);
  std::string id;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      id.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!id.empty() && id.back() != '_') {
      id.push_back('_');
    }
  }
  while (!id.empty() && id.back() == '_') id.pop_back();
  return id;
}

std::string bit_string(std::uint64_t value, unsigned width) {
  std::string s(width, '0');
  for (unsigned i = 0; i < width; ++i) {
    if (value & (std::uint64_t{1} << i)) s[width - 1 - i] = '1';
  }
  return '"' + s + '"';
}

std::string header(const OfdmParams& p, const std::string& what) {
  std::ostringstream os;
  os << "-- " << what << " for " << core::standard_name(p.standard);
  if (!p.variant.empty()) os << " (" << p.variant << ")";
  os << "\n-- Generated by the OFDM Mother Model (HDL design domain).\n"
     << "library ieee;\nuse ieee.std_logic_1164.all;\n"
     << "use ieee.numeric_std.all;\n\n";
  return os.str();
}

VhdlFile make_package(const OfdmParams& p, const std::string& id,
                      const core::Datapath& dp) {
  const core::ToneLayout& layout = dp.layout;
  std::ostringstream os;
  os << header(p, "Parameter package");
  os << "package " << id << "_pkg is\n";
  os << "  constant FFT_SIZE      : natural := " << p.fft_size << ";\n";
  os << "  constant CP_LEN        : natural := " << p.cp_len << ";\n";
  os << "  constant DATA_TONES    : natural := "
     << layout.data_bins.size() << ";\n";
  os << "  constant PILOT_TONES   : natural := "
     << layout.pilot_bins.size() << ";\n";
  os << "  constant SYMBOL_LEN    : natural := " << p.symbol_len()
     << ";\n";
  os << "  constant HERMITIAN     : boolean := "
     << (p.hermitian ? "true" : "false") << ";\n";
  os << "  -- sample rate in Hz, as an integer\n";
  os << "  constant SAMPLE_RATE   : natural := "
     << static_cast<unsigned long long>(std::llround(p.sample_rate))
     << ";\n";
  os << "end package " << id << "_pkg;\n";
  return {id + "_pkg.vhd", os.str()};
}

VhdlFile make_scrambler(const OfdmParams& p, const std::string& id) {
  OFDM_REQUIRE(p.scrambler.enabled,
               "generate_vhdl: standard has no scrambler");
  const unsigned deg = p.scrambler.degree;
  std::ostringstream os;
  os << header(p, "Additive LFSR scrambler");
  os << "entity " << id << "_scrambler is\n"
     << "  generic (\n"
     << "    DEGREE : natural := " << deg << ";\n"
     << "    TAPS   : std_logic_vector(" << deg - 1
     << " downto 0) := " << bit_string(p.scrambler.taps, deg) << ";\n"
     << "    SEED   : std_logic_vector(" << deg - 1
     << " downto 0) := " << bit_string(p.scrambler.seed, deg) << "\n"
     << "  );\n"
     << "  port (\n"
     << "    clk      : in  std_logic;\n"
     << "    rst      : in  std_logic;\n"
     << "    enable   : in  std_logic;\n"
     << "    bit_in   : in  std_logic;\n"
     << "    bit_out  : out std_logic\n"
     << "  );\n"
     << "end entity;\n\n"
     << "architecture rtl of " << id << "_scrambler is\n"
     << "  signal state : std_logic_vector(DEGREE-1 downto 0) := SEED;\n"
     << "  signal fb    : std_logic;\n"
     << "begin\n"
     << "  -- feedback = xor-reduce(state and TAPS)\n"
     << "  process (state)\n"
     << "    variable acc : std_logic;\n"
     << "  begin\n"
     << "    acc := '0';\n"
     << "    for i in state'range loop\n"
     << "      acc := acc xor (state(i) and TAPS(i));\n"
     << "    end loop;\n"
     << "    fb <= acc;\n"
     << "  end process;\n\n"
     << "  process (clk)\n"
     << "  begin\n"
     << "    if rising_edge(clk) then\n"
     << "      if rst = '1' then\n"
     << "        state <= SEED;\n"
     << "      elsif enable = '1' then\n"
     << "        state   <= state(DEGREE-2 downto 0) & fb;\n"
     << "        bit_out <= bit_in xor fb;\n"
     << "      end if;\n"
     << "    end if;\n"
     << "  end process;\n"
     << "end architecture rtl;\n";
  return {id + "_scrambler.vhd", os.str()};
}

VhdlFile make_conv_encoder(const OfdmParams& p, const std::string& id) {
  OFDM_REQUIRE(p.fec.conv_enabled,
               "generate_vhdl: standard has no convolutional code");
  const unsigned kk = p.fec.conv.constraint_length;
  std::ostringstream os;
  os << header(p, "Convolutional encoder");
  os << "entity " << id << "_conv_encoder is\n"
     << "  generic (\n"
     << "    K  : natural := " << kk << ";\n";
  for (std::size_t g = 0; g < p.fec.conv.generators.size(); ++g) {
    os << "    G" << g << " : std_logic_vector(" << kk - 1
       << " downto 0) := "
       << bit_string(p.fec.conv.generators[g], kk);
    os << (g + 1 < p.fec.conv.generators.size() ? ";\n" : "\n");
  }
  os << "  );\n"
     << "  port (\n"
     << "    clk     : in  std_logic;\n"
     << "    rst     : in  std_logic;\n"
     << "    enable  : in  std_logic;\n"
     << "    bit_in  : in  std_logic;\n";
  for (std::size_t g = 0; g < p.fec.conv.generators.size(); ++g) {
    os << "    out_" << static_cast<char>('a' + g)
       << "   : out std_logic"
       << (g + 1 < p.fec.conv.generators.size() ? ";\n" : "\n");
  }
  os << "  );\nend entity;\n\n"
     << "architecture rtl of " << id << "_conv_encoder is\n"
     << "  signal window : std_logic_vector(K-1 downto 0) := (others "
        "=> '0');\n"
     << "begin\n"
     << "  process (clk)\n"
     << "    variable w : std_logic_vector(K-1 downto 0);\n";
  for (std::size_t g = 0; g < p.fec.conv.generators.size(); ++g) {
    os << "    variable p" << g << " : std_logic;\n";
  }
  os << "  begin\n"
     << "    if rising_edge(clk) then\n"
     << "      if rst = '1' then\n"
     << "        window <= (others => '0');\n"
     << "      elsif enable = '1' then\n"
     << "        w := bit_in & window(K-1 downto 1);\n";
  for (std::size_t g = 0; g < p.fec.conv.generators.size(); ++g) {
    os << "        p" << g << " := '0';\n"
       << "        for i in w'range loop\n"
       << "          p" << g << " := p" << g << " xor (w(i) and G" << g
       << "(i));\n"
       << "        end loop;\n"
       << "        out_" << static_cast<char>('a' + g) << " <= p" << g
       << ";\n";
  }
  os << "        window <= w;\n"
     << "      end if;\n"
     << "    end if;\n"
     << "  end process;\n"
     << "end architecture rtl;\n";
  return {id + "_conv_encoder.vhd", os.str()};
}

VhdlFile make_interleaver_rom(const OfdmParams& p, const std::string& id,
                              const core::Datapath& dp) {
  if (!dp.bit_interleaver) return {};  // no bit-interleaver ROM
  const std::vector<std::size_t>& mapping = dp.bit_interleaver->mapping();
  std::ostringstream os;
  os << header(p, "Interleaver address ROM");
  os << "entity " << id << "_interleaver_rom is\n"
     << "  port (\n"
     << "    addr : in  natural range 0 to " << mapping.size() - 1
     << ";\n"
     << "    data : out natural range 0 to " << mapping.size() - 1
     << "\n  );\nend entity;\n\n"
     << "architecture rtl of " << id << "_interleaver_rom is\n"
     << "  type rom_t is array (0 to " << mapping.size() - 1
     << ") of natural;\n"
     << "  constant ROM : rom_t := (\n";
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    os << (i % 12 == 0 ? "    " : "") << mapping[i]
       << (i + 1 < mapping.size() ? ", " : "");
    if (i % 12 == 11) os << "\n";
  }
  os << ");\nbegin\n  data <= ROM(addr);\nend architecture rtl;\n";
  return {id + "_interleaver_rom.vhd", os.str()};
}

VhdlFile make_mapper_rom(const OfdmParams& p, const std::string& id,
                         const core::Datapath& dp, unsigned fixed_bits) {
  if (!dp.constellation) return {};  // no fixed mapping
  const mapping::Constellation& c = *dp.constellation;
  std::ostringstream os;
  os << header(p, "Constellation mapper ROM (" +
                      mapping::scheme_name(p.scheme) + ")");
  os << "entity " << id << "_mapper_rom is\n"
     << "  port (\n"
     << "    bits : in  std_logic_vector(" << c.bits() - 1
     << " downto 0);\n"
     << "    i_out : out signed(" << fixed_bits - 1 << " downto 0);\n"
     << "    q_out : out signed(" << fixed_bits - 1 << " downto 0)\n"
     << "  );\nend entity;\n\n"
     << "architecture rtl of " << id << "_mapper_rom is\n"
     << "  type rom_t is array (0 to " << c.size() - 1 << ") of signed("
     << fixed_bits - 1 << " downto 0);\n";
  os << "  constant ROM_I : rom_t := (\n";
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << (i % 8 == 0 ? "    " : "") << "to_signed("
       << to_fixed(c.point(i).real(), fixed_bits) << ", " << fixed_bits
       << ")" << (i + 1 < c.size() ? ", " : "");
    if (i % 8 == 7) os << "\n";
  }
  os << ");\n  constant ROM_Q : rom_t := (\n";
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << (i % 8 == 0 ? "    " : "") << "to_signed("
       << to_fixed(c.point(i).imag(), fixed_bits) << ", " << fixed_bits
       << ")" << (i + 1 < c.size() ? ", " : "");
    if (i % 8 == 7) os << "\n";
  }
  os << ");\nbegin\n"
     << "  i_out <= ROM_I(to_integer(unsigned(bits)));\n"
     << "  q_out <= ROM_Q(to_integer(unsigned(bits)));\n"
     << "end architecture rtl;\n";
  return {id + "_mapper_rom.vhd", os.str()};
}

}  // namespace

const VhdlFile* VhdlBundle::find(const std::string& filename) const {
  const auto it = std::find_if(
      files.begin(), files.end(),
      [&filename](const VhdlFile& f) { return f.filename == filename; });
  return it == files.end() ? nullptr : &*it;
}

long to_fixed(double value, unsigned fixed_bits) {
  OFDM_REQUIRE(fixed_bits >= 2 && fixed_bits <= 31,
               "to_fixed: width must be 2..31");
  // Full scale 2.0: one sign bit, fixed_bits-2 integer+fraction split
  // chosen so |value| < 2.0 is representable.
  const double scale = static_cast<double>(1l << (fixed_bits - 2));
  const long max = (1l << (fixed_bits - 1)) - 1;
  return std::clamp(std::lround(value * scale), -max - 1, max);
}

VhdlBundle generate_vhdl(const core::OfdmParams& params,
                         unsigned fixed_bits) {
  const core::Datapath dp(params);
  const std::string id = identifier_for(params);

  VhdlBundle bundle;
  bundle.files.push_back(make_package(params, id, dp));
  if (params.scrambler.enabled) {
    bundle.files.push_back(make_scrambler(params, id));
  }
  if (params.fec.conv_enabled) {
    bundle.files.push_back(make_conv_encoder(params, id));
  }
  VhdlFile inter = make_interleaver_rom(params, id, dp);
  if (!inter.filename.empty()) bundle.files.push_back(std::move(inter));
  VhdlFile mapper = make_mapper_rom(params, id, dp, fixed_bits);
  if (!mapper.filename.empty()) bundle.files.push_back(std::move(mapper));
  return bundle;
}

}  // namespace ofdm::rtl
