package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.ConfigSpace
import repro.harness._

/** Shared SparkSession builder for the spark-submit entrypoints. */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.log.level", "WARN")
      .getOrCreate()
}

/** Table 1: the configuration space (enumerates the 140 join functions). */
object Table1Job {
  def main(args: Array[String]): Unit = {
    println(s"Table 1 — parameter options: ${ConfigSpace.Size} join functions")
    ConfigSpace.full.foreach(f => println(s"  f${f.id}: ${f.label}"))
    println(s"Reduced space (Table 6): ${ConfigSpace.reduced24.size} functions")
    ConfigSpace.reduced24.foreach(id => println(s"  f$id: ${ConfigSpace.decode(id).label}"))
  }
}

/** Table 2: single-column quality comparison over the 20-task suite. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table2")
    try println(Reports.table2(SingleColumnSuite.evals(spark))) finally spark.stop()
  }
}

/** Table 5: PR-AUC per single-column dataset. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table5")
    try println(Reports.table5(SingleColumnSuite.evals(spark))) finally spark.stop()
  }
}

/** Table 6: AutoFJ with the reduced 24-configuration space. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table6")
    try println(Reports.table6(SingleColumnSuite.evals(spark))) finally spark.stop()
  }
}

/** Table 3: multi-column dataset statistics. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table3")
    try println(MultiReports.table3(MultiColumnSuite.evals(spark))) finally spark.stop()
  }
}

/** Table 4: multi-column quality (a) and random-column robustness (b). */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table4")
    try {
      val evals = MultiColumnSuite.evals(spark)
      println(MultiReports.table4a(evals))
      println(MultiReports.table4b(evals))
    } finally spark.stop()
  }
}

/** Table 7: multi-column PR-AUC. */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("autofj-table7")
    try println(MultiReports.table7(MultiColumnSuite.evals(spark))) finally spark.stop()
  }
}
