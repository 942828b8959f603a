package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigest hashes the first n instructions of w's stream at each
// seed: PC, Addr, Dep, Kind and Taken, little-endian, in stream order.
func streamDigest(w Workload, n int, seeds ...uint64) string {
	h := sha256.New()
	var buf [20]byte
	for _, seed := range seeds {
		rd := w.NewReader(seed)
		for i := 0; i < n; i++ {
			in, ok := rd.Next()
			if !ok {
				break
			}
			binary.LittleEndian.PutUint64(buf[0:], in.PC)
			binary.LittleEndian.PutUint64(buf[8:], in.Addr)
			binary.LittleEndian.PutUint16(buf[16:], in.Dep)
			buf[18] = byte(in.Kind)
			buf[19] = 0
			if in.Taken {
				buf[19] = 1
			}
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGolden pins what every workload's generator emits: the
// SHA-256 of its first 100k instructions at seeds 1 and 7, recorded
// before the generator drew its choices as integer compares. A change
// to the generator, a pattern or a workload definition that moves a
// single instruction fails here, inside go test, rather than only in
// the simulated results downstream.
func TestStreamGolden(t *testing.T) {
	got := map[string]string{}
	for _, w := range All() {
		got[w.Name] = streamDigest(w, 100_000, 1, 7)
		want, ok := streamGolden[w.Name]
		if !ok {
			t.Errorf("%s: no recorded digest", w.Name)
			continue
		}
		if got[w.Name] != want {
			t.Errorf("%s: stream digest %s, want %s", w.Name, got[w.Name], want)
		}
	}
	for name := range streamGolden {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded digest for a workload no longer in All()", name)
		}
	}
}

// streamGolden holds each workload's digest, keyed by name.
var streamGolden = map[string]string{
	"400.perlbench":   "c3f530bc4f7ccb0c5838fe9c714a11dc52bf0f39cfce515be68a2db0f1d46bb3",
	"401.bzip2":       "2c615b364184553f01aeb4bb4ead780315795b371e39a34b80b5c78637345e69",
	"403.gcc":         "ee49ff5edeabee07226ba76af71b47322a79c9db6772270fca7a7cf9b6ff3b70",
	"410.bwaves":      "1c3767f2dc68422e40d5150c533c4ad36d463f32a42f375b45af02d875bd98eb",
	"416.gamess":      "b554763cafdfea5b36738bed8d0d0716f28a0e1de74a54fd0fbfbeac41694c62",
	"429.mcf":         "9cf311fa7915253f7275f9b41df9542184186b2b00126c591a0f332142ab4fa0",
	"433.milc":        "f49ea9d32b7fc09e34f46ae6b8aecf33073c611720450e1b74487aeae9338bd5",
	"434.zeusmp":      "d43185270ace011f88974c6181a393d201b15898853bfd62537610e22a62223f",
	"435.gromacs":     "bce3b84f70360a5fc262f631249fb99b66a04eade9cbdafa71a0f4dedeb3f293",
	"436.cactusADM":   "500b25273cf42516921a09361fd36b607c482d7c65cf514e7dce4ef5181f09dd",
	"437.leslie3d":    "1da4b45db8a67835e8e9905d4d1aa48de193d4de592a8a80bdc951e8e7e03ed6",
	"444.namd":        "4213d07b67f3ea2c6587b99f0050b182237850b4f82d7ef661d02b1162094192",
	"445.gobmk":       "99636ab204ea516b12b40831ba8f0eff42c5484bdcf8514aabe68a78d2c35cb8",
	"447.dealII":      "6307fe93c19855f6e9dc730569b1d505159fcef3cf42ccb5b5942016549cc13b",
	"450.soplex":      "3556eaddd3edcb768e0729d0700602ef57c72c540c063e2d6e6f2f4816e04ff1",
	"453.povray":      "28a56918feac4e7cb2c1c58cc66d09670ede71d05aaf814228e2e2a1e7d20db2",
	"454.calculix":    "e6dd673c02f817efe97c03a216c767d7acb02ab63ed2bc2306443cae6d08532c",
	"456.hmmer":       "2a86a0974b2b91ebadc2b814fb876fee9198d51a4d0c4aff4ba882ecf9f5b5b1",
	"458.sjeng":       "810ac7323e4c1e36c50b22e698c77f4e35ac0560bbd792c7e19ea7f80d23bd8e",
	"459.GemsFDTD":    "a6f3bea19943601f01941f9da904c80ea8b3f735ab324f6c2d34a2f904a103af",
	"462.libquantum":  "d72b3cf6e562a7620256119fb5ca2f12556f35a909a08bd46ca3cc19f8ae103f",
	"464.h264ref":     "8536462002b54ea88a8ea89b7e801e86dd39e6953d91b5c20e0e3a254c810f61",
	"465.tonto":       "a9e8cde99824c0d696d73e200f7a601f68fa090d4565a2bfa07d2a1a3c149b2b",
	"470.lbm":         "1b4f2d34b8e6f0f3c47d4431ecf62be689a5d7008f67112db28dc9b156998028",
	"471.omnetpp":     "0cd69e57c956661b2e4f929ed943dcd11050555f1db7d9108b8aca0746766366",
	"473.astar":       "76f29f50796ae1c5d6af1f0c4e9cee43eca46c252e508944e5758e8c56c1a005",
	"481.wrf":         "e4e06d771b29ee24c41cd507f685720d346d123b9231aad2c3ce41568085441e",
	"482.sphinx3":     "a399cbb4fc466d23a5cc5972eabcada538b7c001426ec2202cca213505902e84",
	"483.xalancbmk":   "39a18c2cd8fabb22a5b1d9c33d882a41286d28183db7949162a01173d168ea72",
	"600.perlbench_s": "32ad76cd103464d6bbfd206e4d23592c56977cc9c0a17a2f6942e4082fd0540f",
	"602.gcc_s":       "4e0a48e7287a14c9fc1387eabe2c3bcbafa079b0fe069d3f0b5d03614a86161d",
	"603.bwaves_s":    "44e7c3c90d3523a17eed0a776174746f6c6373cd09228c66e2463b7a4eda9ae2",
	"605.mcf_s":       "fa2dc24ebac85702a0f470329e5cd9af01fee6af692b4f3021faa24ac5003149",
	"607.cactuBSSN_s": "98b265e364ca0709b082e8f27055d32c80fbe9f52f68a6495c829cc802e21538",
	"619.lbm_s":       "4ca1a59263796ab3fd6a9fd83866992c192fc2996bfb8593fc512dc4e109c712",
	"620.omnetpp_s":   "6a107bdd30f38dd2598f1afa2f1e6ca934d36f9b28676a407a385d6c8ad4d14b",
	"621.wrf_s":       "8d9de712ec4b46d00b53ed9a0126ea83fcd1714c09f7639c8a9c641cc5cc787b",
	"623.xalancbmk_s": "2c9109d24f770a6af22b8d42995647d9108da321ce5bddca90f90c00142c8572",
	"625.x264_s":      "a16f9b135b5be709ca7885061428ae56c2440d3e2bfe4f6016eb53e372691e19",
	"627.cam4_s":      "3ad29b43fb9294041fe501542ee9d15df5b5e2ce90da8658dcaf32cfff8eefb3",
	"628.pop2_s":      "b7d4284e7ff3058742f24444973969d7bb171eee1a58cdc04df5ae18edc78d3a",
	"631.deepsjeng_s": "3392948d8ba371709d0fd423dc54e3d72acf3166f08e8070fd56c8246f53ab68",
	"638.imagick_s":   "bbf0d6b4c7e9337e5caf85ad30f0433c2a3361da19fc0375ce3227cddc68db8a",
	"641.leela_s":     "52b0baa94d84f423175f745c7b47779db17ee59551e21bbe6c65ff4c10b2f6a1",
	"644.nab_s":       "7d3373b8daa27ba0af600c678bfb5759ac49296dfb20d92d4bb4a79570b84175",
	"648.exchange2_s": "b52354e53aad7605ddd15a2e67e0757bea330866da5c1cacd1007edfdf032825",
	"649.fotonik3d_s": "c9ab7ef683c18f498560f7fd56e1bb067d1c350d65c4ad56934b46d0d2c60431",
	"654.roms_s":      "aa96c8c13d686c847830ba3255ea35e1c0d48f38fe43b443ce370c3c539cd5a6",
	"657.xz_s":        "8a9d28bf65e1f2eb9f7a35ce6ecec7a13b7fa67fc317bce471b185c08e44e357",
	"cassandra":       "9b05fb7afbcb285ad1020adc6f73694e1895851000d6db72fc23fea10d222128",
	"classification":  "f2e79d3ebea953ec98cc1a6062610224d970ad6a5e3976db92fc43a6ffcc98d2",
	"cloud9":          "d4894a2d4ba5fe54419920aaa3e533b27fbd7cd76d6c922c4a60cd5f5efa4cad",
	"nutch":           "474b98a8c961ac6c4cf2e228c0fb48f70693d1e985c355ef416fd6273de3264c",
}
