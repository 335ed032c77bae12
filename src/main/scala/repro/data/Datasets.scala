package repro.data

import repro.graph.LabeledGraph

/** One row of a paper evaluation table (Tables 1 and 2): the published
  * `#results` and per-implementation milliseconds. `None` = the paper
  * omitted the configuration (dGPU on g1–g3).
  */
final case class PaperRow(results: Long,
                          gllMs: Option[Long],
                          dGpuMs: Option[Long],
                          sCpuMs: Option[Long],
                          sGpuMs: Option[Long])

/** A dataset of the paper's corpus: generator parameters sized so that
  * `#triples` matches the paper exactly, plus the paper's published
  * numbers for both queries (for side-by-side reporting).
  *
  * @param repeatK  disjoint-copy factor — 1 for the real ontologies; the
  *                 synthetic graphs are g1 = funding×8, g2 = wine×8,
  *                 g3 = pizza×8 (construction reverse-engineered from the
  *                 paper's own triple/result counts, see DESIGN.md §3)
  */
final case class DatasetSpec(name: String,
                             classes: Int,
                             instances: Int,
                             extra: Int,
                             layers: Int,
                             repeatK: Int,
                             seed: Long,
                             paperTriples: Long,
                             paperQ1: PaperRow,
                             paperQ2: PaperRow,
                             multiParentFrac: Double,
                             multiTypeFrac: Double,
                             typeSkew: Double,
                             typesPerInst: Double,
                             classTypeFrac: Double) {

  /** Number of RDF triples before inverse-edge expansion. */
  def triples: Long = ((classes - 1).toLong + instances + extra) * repeatK

  /** The evaluation graph: ontology triples, repeated `repeatK` times,
    * with inverse edges added (the paper's RDF conversion). Edge count is
    * therefore `2 × triples`.
    */
  def graph: LabeledGraph =
    OntologyGen.ontology(classes, instances, extra, layers,
        multiParentFrac, multiTypeFrac, typeSkew, typesPerInst, classTypeFrac, seed)
      .repeat(repeatK)
      .withInverses()
}

/** The paper's 14-graph corpus with the published Table 1 / Table 2 rows. */
object Datasets {

  private def d(name: String, classes: Int, instances: Int, extra: Int, layers: Int,
                seed: Long, triples: Long, q1: PaperRow, q2: PaperRow,
                repeatK: Int = 1, mp: Double = 0.2, mt: Double = 0.75,
                skew: Double = 2.0, tpi: Double = 8.0, ctf: Double = 0.3): DatasetSpec = {
    val spec = DatasetSpec(name, classes, instances, extra, layers, repeatK, seed, triples,
      q1, q2, mp, mt, skew, tpi, ctf)
    require(spec.triples == triples, s"$name: generator sized ${spec.triples}, paper has $triples")
    spec
  }

  private def row(results: Long, gll: Long, dgpu: Long, scpu: Long, sgpu: Long): PaperRow =
    PaperRow(results, Some(gll), Some(dgpu), Some(scpu), Some(sgpu))
  private def rowNoDense(results: Long, gll: Long, scpu: Long, sgpu: Long): PaperRow =
    PaperRow(results, Some(gll), None, Some(scpu), Some(sgpu))

  val skos = d("skos", 50, 120, 83, 6, 101L, 252,
    row(810, 10, 56, 14, 12), row(1, 1, 10, 2, 1),
    mp = 0.02, mt = 0.9, tpi = 4.0, ctf = 0.3)
  val generations = d("generations", 60, 140, 74, 6, 102L, 273,
    row(2164, 19, 62, 20, 13), row(0, 1, 9, 2, 0),
    mp = 0.0, mt = 0.9, tpi = 10.0, ctf = 0.2)
  val travel = d("travel", 70, 130, 78, 6, 103L, 277,
    row(2499, 24, 69, 22, 30), row(63, 1, 31, 7, 10),
    mp = 0.1, mt = 0.85, tpi = 8.0, ctf = 0.3)
  val univBench = d("univ-bench", 70, 150, 74, 6, 104L, 293,
    row(2540, 25, 81, 25, 15), row(81, 11, 55, 15, 9),
    mp = 0.1, mt = 0.85, tpi = 8.0, ctf = 0.3)
  val atomPrimitive = d("atom-primitive", 291, 60, 75, 6, 105L, 425,
    row(15454, 255, 190, 92, 22), row(122, 66, 36, 9, 2),
    mp = 0.05, mt = 0.9, tpi = 10.0, ctf = 0.3)
  val biomedical = d("biomedical-measure-primitive", 280, 100, 80, 6, 106L, 459,
    row(15156, 261, 266, 113, 20), row(2871, 45, 276, 91, 24),
    mp = 0.6, mt = 0.35, tpi = 10.0, ctf = 0.3)
  val foaf = d("foaf", 80, 400, 152, 6, 107L, 631,
    row(4118, 39, 154, 48, 9), row(10, 2, 53, 14, 3),
    mp = 0.02, mt = 0.9, tpi = 6.0, ctf = 0.2)
  val peoplePets = d("people-pets", 120, 350, 171, 6, 108L, 640,
    row(9472, 89, 392, 142, 32), row(37, 3, 144, 38, 6),
    mp = 0.02, mt = 0.9, tpi = 8.0, ctf = 0.4)
  val funding = d("funding", 250, 600, 237, 6, 109L, 1086,
    row(17634, 212, 1410, 447, 36), row(1158, 23, 1246, 344, 27),
    mp = 0.4, mt = 0.55, tpi = 10.0, ctf = 0.0)
  val wine = d("wine", 400, 1000, 440, 6, 110L, 1839,
    row(66572, 819, 2047, 797, 54), row(133, 8, 722, 179, 6),
    mp = 0.05, mt = 0.9, tpi = 10.0, ctf = 0.9)
  val pizza = d("pizza", 450, 1100, 431, 6, 111L, 1980,
    row(56195, 697, 1104, 430, 24), row(1262, 29, 943, 258, 23),
    mp = 0.3, mt = 0.65, tpi = 10.0, ctf = 0.8)

  // The paper: "we also constructed synthetic graphs g1, g2 and g3 by
  // simple repeating the existing graphs". The 8× factors below reproduce
  // the paper's triple AND result counts exactly (1086×8=8688 etc.).
  val g1 = d("g1", 250, 600, 237, 6, 109L, 8688,
    rowNoDense(141072, 1926, 26957, 82), rowNoDense(9264, 167, 21115, 38),
    repeatK = 8, mp = 0.4, mt = 0.55, tpi = 10.0, ctf = 0.0)
  val g2 = d("g2", 400, 1000, 440, 6, 110L, 14712,
    rowNoDense(532576, 6246, 46809, 185), rowNoDense(1064, 46, 10874, 21),
    repeatK = 8, mp = 0.05, mt = 0.9, tpi = 10.0, ctf = 0.9)
  val g3 = d("g3", 450, 1100, 431, 6, 111L, 15840,
    rowNoDense(449560, 7014, 24967, 127), rowNoDense(10096, 393, 15736, 40),
    repeatK = 8, mp = 0.3, mt = 0.65, tpi = 10.0, ctf = 0.8)

  /** All 14 datasets in the paper's table order. */
  val all: Seq[DatasetSpec] = Seq(
    skos, generations, travel, univBench, atomPrimitive, biomedical,
    foaf, peoplePets, funding, wine, pizza, g1, g2, g3,
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset: $name"))
}
